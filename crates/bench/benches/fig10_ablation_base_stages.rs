//! Figure 10: the technique ablation of Figure 4, repeated at the *base*
//! stage counts (the paper's 107 / 93-equivalent granularity, i.e. one
//! weight unit per stage rather than 2×).

use pipemare_bench::report::{banner, series, series64};
use pipemare_bench::workloads::{ImageWorkload, TranslationWorkload};
use pipemare_pipeline::Method;

fn main() {
    banner(
        "Figure 10",
        "Incremental T1/T2/T3 at base stage counts: accuracy & BLEU vs epochs and time",
    );

    let w = ImageWorkload::cifar_like();
    println!("\n--- ResNet-style CNN ({} stages) ---", w.stages);
    let variants = [
        ("Sync", Method::GPipe, false, false, 0usize),
        ("PipeMare T1", Method::PipeMare, true, false, 0),
        ("PipeMare T1+T2", Method::PipeMare, true, true, 0),
    ];
    for (label, method, t1, t2, warm) in variants {
        let cfg = w.config(method, t1, t2);
        let h = w.run(cfg, warm);
        series(&format!("{label} acc%"), &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
        series64(&format!("{label} time"), &h.epochs.iter().map(|e| e.time).collect::<Vec<_>>(), 1);
    }

    let w = TranslationWorkload::iwslt_like();
    println!("\n--- Transformer ({} stages) ---", w.stages);
    let variants = [
        ("Sync", Method::GPipe, false, false, 0usize),
        ("PipeMare T1", Method::PipeMare, true, false, 0),
        ("PipeMare T1+T2", Method::PipeMare, true, true, 0),
        ("PipeMare T1+T2+T3", Method::PipeMare, true, true, w.t3_epochs),
    ];
    for (label, method, t1, t2, warm) in variants {
        let cfg = w.config(method, t1, t2);
        let h = w.run(cfg, warm);
        series(&format!("{label} BLEU"), &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
        series64(&format!("{label} time"), &h.epochs.iter().map(|e| e.time).collect::<Vec<_>>(), 1);
    }
    println!("\nPaper shape: same ordering as Figure 4, with smaller gaps at the coarser");
    println!("granularity (smaller delays).");
}
