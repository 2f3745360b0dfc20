//! Figure 9: end-to-end curves on the larger tasks (the ImageNet-like
//! image workload and the WMT-like translation workload): test metric vs
//! epochs and vs normalized time, for the synchronous baseline,
//! PipeDream, and full PipeMare.

use pipemare_bench::report::{banner, series, series64};
use pipemare_bench::workloads::{ImageWorkload, TranslationWorkload};
use pipemare_pipeline::Method;

fn main() {
    banner(
        "Figure 9",
        "ImageNet-like and WMT-like end-to-end curves (Sync / PipeDream / PipeMare)",
    );

    let w = ImageWorkload::imagenet_like();
    println!("\n--- ImageNet-like ({} stages) ---", w.stages);
    for method in Method::ALL {
        let (t1, t2) = (method == Method::PipeMare, method == Method::PipeMare);
        let cfg = w.config(method, t1, t2);
        let h = w.run(cfg, 0);
        series(
            &format!("{} acc%", method.name()),
            &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(),
            1,
        );
        series64(
            &format!("{} time", method.name()),
            &h.epochs.iter().map(|e| e.time).collect::<Vec<_>>(),
            1,
        );
    }

    let w = TranslationWorkload::wmt_like();
    println!("\n--- WMT-like ({} stages) ---", w.stages);
    for method in Method::ALL {
        let (t1, t2, warm) = match method {
            Method::PipeMare => (true, true, w.t3_epochs),
            _ => (false, false, 0),
        };
        let cfg = w.config(method, t1, t2);
        let h = w.run(cfg, warm);
        series(
            &format!("{} BLEU", method.name()),
            &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(),
            1,
        );
        series64(
            &format!("{} time", method.name()),
            &h.epochs.iter().map(|e| e.time).collect::<Vec<_>>(),
            1,
        );
        if h.diverged {
            println!("{:>28}  (diverged)", "");
        }
    }
    println!("\nPaper shape: PipeMare tracks the synchronous curves per epoch while finishing");
    println!("each epoch in ~1/3 of GPipe's normalized time; PipeDream lags or fails on the");
    println!("translation task.");
}
