//! Figure 19 (App. E): Hogwild!-style stochastic asynchrony — per-stage
//! gradient delays sampled from truncated exponentials — hurts final
//! quality on both tasks; applying T1 learning-rate rescheduling (scaled
//! by each stage's mean delay) recovers it.

use pipemare_bench::report::{banner, series};
use pipemare_bench::workloads::{ImageWorkload, TranslationWorkload};
use pipemare_core::TrainMode;
use pipemare_optim::T1Rescheduler;
use pipemare_pipeline::{HogwildDelays, Method};

fn main() {
    banner("Figure 19", "Hogwild!-style stochastic delays: Sync vs Hogwild vs Hogwild+T1");

    let w = ImageWorkload::cifar_like();
    println!("\n--- ResNet-style CNN ---");
    {
        let sync = w.config(Method::GPipe, false, false);
        let h = w.run(sync, 0);
        series("Sync acc%", &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
        for t1 in [false, true] {
            let mut cfg = w.config(Method::PipeMare, t1, false);
            cfg.mode =
                TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(w.stages, w.n_micro));
            if t1 {
                cfg.t1 = Some(T1Rescheduler::new(w.t1_steps));
            }
            let h = w.run(cfg, 0);
            let label = if t1 { "Hogwild+T1" } else { "Hogwild" };
            series(
                &format!("{label} acc%"),
                &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(),
                1,
            );
            if h.diverged {
                println!("{:>28}  (diverged)", "");
            }
        }
    }

    let w = TranslationWorkload::iwslt_like();
    println!("\n--- Transformer ---");
    {
        let sync = w.config(Method::GPipe, false, false);
        let h = w.run(sync, 0);
        series("Sync BLEU", &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
        for t1 in [false, true] {
            let mut cfg = w.config(Method::PipeMare, t1, false);
            cfg.mode =
                TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(w.stages, w.n_micro));
            if t1 {
                cfg.t1 = Some(T1Rescheduler::new(w.t1_steps));
            }
            let h = w.run(cfg, 0);
            let label = if t1 { "Hogwild+T1" } else { "Hogwild" };
            series(
                &format!("{label} BLEU"),
                &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(),
                1,
            );
            if h.diverged {
                println!("{:>28}  (diverged)", "");
            }
        }
    }
    println!("\nPaper shape: raw Hogwild asynchrony degrades the final metric; the T1");
    println!("rescheduling heuristic recovers it toward the synchronous level.");
}
