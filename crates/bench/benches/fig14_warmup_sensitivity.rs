//! Figure 14 (App. C.2.3): sensitivity to the number of T3 synchronous
//! warmup epochs on the translation task — more warmup improves the
//! per-epoch BLEU curve but costs throughput, so time-to-target has an
//! interior optimum.

use pipemare_bench::report::{banner, opt_fmt, series, series64};
use pipemare_bench::workloads::TranslationWorkload;
use pipemare_pipeline::Method;

fn main() {
    banner("Figure 14", "Sensitivity to T3 warmup epochs on the translation task");
    let w = TranslationWorkload::iwslt_like();
    let mut best_overall = f32::MIN;
    let mut runs = Vec::new();
    for warm in [0usize, 1, 3, 5] {
        let cfg = w.config(Method::PipeMare, true, true);
        let h = w.run(cfg, warm);
        best_overall = best_overall.max(h.best_metric());
        runs.push((warm, h));
    }
    let target = best_overall * 0.99; // ~1% relative, as in the appendix
    for (warm, h) in &runs {
        series(
            &format!("{warm} warmup BLEU"),
            &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(),
            1,
        );
        series64(
            &format!("{warm} warmup time"),
            &h.epochs.iter().map(|e| e.time).collect::<Vec<_>>(),
            1,
        );
        println!(
            "{:>28}  best = {:.1}, time-to-{target:.1} = {}",
            "",
            h.best_metric(),
            opt_fmt(h.time_to_target(target), 1)
        );
    }
    println!("\nPaper shape: a few warmup epochs give the best time-to-target; many warmup");
    println!("epochs improve per-epoch quality but pay the synchronous throughput penalty.");
}
