//! Figure 4: the effect of incrementally combining PipeMare's techniques
//! (T1, T2, T3) on a ResNet-style CNN and a Transformer at **2× the
//! base stage counts** (the paper's stress test of very fine-grained
//! pipelining): test accuracy / BLEU vs epochs and vs normalized time,
//! for {Sync, T1, T1+T2, T1+T2+T3}.

use pipemare_bench::report::{banner, series, series64};
use pipemare_bench::workloads::{ImageWorkload, TranslationWorkload};
use pipemare_pipeline::Method;

fn main() {
    banner(
        "Figure 4",
        "Incremental T1/T2/T3 at 2x stage counts: accuracy & BLEU vs epochs and time",
    );

    // ResNet-style image task at 2x stages.
    let w = ImageWorkload::cifar_like();
    let stages = 2 * w.stages;
    println!("\n--- ResNet-style CNN ({} stages) ---", stages);
    let variants = [
        ("Sync", Method::GPipe, false, false, 0usize),
        ("PipeMare T1", Method::PipeMare, true, false, 0),
        ("PipeMare T1+T2", Method::PipeMare, true, true, 0),
        ("PipeMare T1+T2+T3", Method::PipeMare, true, true, 1),
    ];
    for (label, method, t1, t2, warm) in variants {
        let cfg = w.config_at(method, t1, t2, stages);
        let h = w.run(cfg, warm);
        let accs: Vec<f32> = h.epochs.iter().map(|e| e.metric).collect();
        let times: Vec<f64> = h.epochs.iter().map(|e| e.time).collect();
        series(&format!("{label} acc%"), &accs, 1);
        series64(&format!("{label} time"), &times, 1);
        if h.diverged {
            println!("{:>28}  (diverged)", "");
        }
    }

    // Transformer translation task at 2x stages.
    let w = TranslationWorkload::iwslt_like();
    let stages = 2 * w.stages;
    println!("\n--- Transformer ({} stages) ---", stages);
    let variants = [
        ("Sync", Method::GPipe, false, false, 0usize),
        ("PipeMare T1", Method::PipeMare, true, false, 0),
        ("PipeMare T1+T2", Method::PipeMare, true, true, 0),
        ("PipeMare T1+T2+T3", Method::PipeMare, true, true, w.t3_epochs),
    ];
    for (label, method, t1, t2, warm) in variants {
        let cfg = w.config_at(method, t1, t2, stages);
        let h = w.run(cfg, warm);
        let bleus: Vec<f32> = h.epochs.iter().map(|e| e.metric).collect();
        let times: Vec<f64> = h.epochs.iter().map(|e| e.time).collect();
        series(&format!("{label} BLEU"), &bleus, 1);
        series64(&format!("{label} time"), &times, 1);
        if h.diverged {
            println!("{:>28}  (diverged)", "");
        }
    }
    println!("\nPaper shape: T1 alone trails sync at fine granularity; T1+T2 closes most of");
    println!("the gap on the CNN; T1+T2+T3 is needed to match sync BLEU on the Transformer,");
    println!("while all async variants reach their best metric in less normalized time.");
}
