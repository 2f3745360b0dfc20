//! Figure 12: sensitivity of final model quality to the number of T1
//! annealing steps K — the ResNet-style task prefers small K while the
//! Transformer prefers large K.

use pipemare_bench::report::{banner, series};
use pipemare_bench::workloads::{ImageWorkload, TranslationWorkload};
use pipemare_optim::T1Rescheduler;
use pipemare_pipeline::Method;

fn main() {
    banner("Figure 12", "Sensitivity to T1 annealing steps K (accuracy / BLEU per epoch)");

    let w = ImageWorkload::cifar_like();
    println!("\n--- ResNet-style CNN, K sweep ---");
    for k in [5usize, 20, 160] {
        let mut cfg = w.config(Method::PipeMare, true, true);
        cfg.t1 = Some(T1Rescheduler::new(k));
        let h = w.run(cfg, 0);
        series(&format!("K = {k} acc%"), &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
    }

    let w = TranslationWorkload::iwslt_like();
    println!("\n--- Transformer, K sweep ---");
    for k in [15usize, 120, 480] {
        let mut cfg = w.config(Method::PipeMare, true, true);
        cfg.t1 = Some(T1Rescheduler::new(k));
        let h = w.run(cfg, w.t3_epochs);
        series(&format!("K = {k} BLEU"), &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
    }
    println!("\nPaper shape: the best K is task-dependent — too small K risks instability,");
    println!("too large K over-suppresses the learning rate and slows convergence.");
}
