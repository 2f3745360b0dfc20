//! Figure 17 (App. D.2): PipeMare Recompute on the CIFAR-like task —
//! with different numbers of gradient-checkpoint segments, recompute does
//! not hurt the accuracy attained by T1 or T1+T2.

use pipemare_bench::report::{banner, series};
use pipemare_bench::workloads::ImageWorkload;
use pipemare_core::RecomputeCfg;
use pipemare_pipeline::Method;

fn main() {
    banner("Figure 17", "Recompute on the CIFAR-like task: checkpoints in {none, 2, 4}");
    let w = ImageWorkload::cifar_like();
    for t2 in [false, true] {
        println!("\n--- PipeMare T1{} ---", if t2 { "+T2" } else { "" });
        for ckpts in [0usize, 2, 4] {
            let mut cfg = w.config(Method::PipeMare, true, t2);
            if ckpts > 0 {
                cfg.recompute = Some(RecomputeCfg { segments: ckpts, t2 });
            }
            let h = w.run(cfg, 0);
            let label =
                if ckpts == 0 { "no recompute".to_string() } else { format!("{ckpts} ckpts") };
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
    println!("\nPaper shape: on the CNN, recompute matches the no-recompute accuracy both");
    println!("with and without the discrepancy correction.");
}
