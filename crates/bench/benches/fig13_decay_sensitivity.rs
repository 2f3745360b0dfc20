//! Figure 13: sensitivity of final model quality to the T2 discrepancy
//! decay D (`D = 0` disables history averaging; the paper finds D ≤ 0.5
//! works on the CNN and small D on the Transformer).

use pipemare_bench::report::{banner, series};
use pipemare_bench::workloads::{ImageWorkload, TranslationWorkload};
use pipemare_pipeline::Method;

fn main() {
    banner("Figure 13", "Sensitivity to the T2 decay D (accuracy / BLEU per epoch)");

    let w = ImageWorkload::cifar_like();
    println!("\n--- ResNet-style CNN, D sweep ---");
    for d in [0.0f64, 0.2, 0.5, 0.7] {
        let mut cfg = w.config(Method::PipeMare, true, true);
        cfg.t2_decay = if d == 0.0 { None } else { Some(d) };
        let h = w.run(cfg, 0);
        series(&format!("D = {d} acc%"), &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
    }

    let w = TranslationWorkload::iwslt_like();
    println!("\n--- Transformer, D sweep ---");
    for d in [0.0f64, 0.01, 0.1, 0.5] {
        let mut cfg = w.config(Method::PipeMare, true, true);
        cfg.t2_decay = if d == 0.0 { None } else { Some(d) };
        let h = w.run(cfg, w.t3_epochs);
        series(&format!("D = {d} BLEU"), &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
    }
    println!("\nPaper shape: moderate decays help; overly large D (long history) can hurt");
    println!("convergence speed relative to no correction at all.");
}
