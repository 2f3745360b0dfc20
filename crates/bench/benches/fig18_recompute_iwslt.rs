//! Figure 18 (App. D.2): PipeMare Recompute on the IWSLT-like task —
//! with T1 only, recompute can destabilize training; adding the
//! discrepancy correction (T2, including T2-for-recompute) restores
//! no-recompute accuracy at every checkpoint count.

use pipemare_bench::report::{banner, series};
use pipemare_bench::workloads::TranslationWorkload;
use pipemare_core::RecomputeCfg;
use pipemare_pipeline::Method;

fn main() {
    banner("Figure 18", "Recompute on the IWSLT-like task: T1 vs T1+T2 vs T1+T2+T3");
    let w = TranslationWorkload::iwslt_like();
    let variants: [(&str, bool, usize); 3] = [
        ("PipeMare T1", false, 0),
        ("PipeMare T1+T2", true, 0),
        ("PipeMare T1+T2+T3", true, w.t3_epochs),
    ];
    for (vlabel, t2, warm) in variants {
        println!("\n--- {vlabel} ---");
        for ckpts in [0usize, 2, 4] {
            let mut cfg = w.config(Method::PipeMare, true, t2);
            if ckpts > 0 {
                cfg.recompute = Some(RecomputeCfg { segments: ckpts, t2 });
            }
            let h = w.run(cfg, warm);
            let label =
                if ckpts == 0 { "no recompute".to_string() } else { format!("{ckpts} ckpts") };
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
    println!("\nPaper shape: recompute under T1-only can be unstable on the Transformer;");
    println!("with the discrepancy correction every checkpoint count matches no-recompute.");
}
