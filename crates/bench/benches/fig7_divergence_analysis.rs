//! Figure 7: why naive asynchronous pipeline training diverges. On the
//! ResNet-style CNN we track the parameter norm and test accuracy of
//! (i) synchronous training, (ii) async with forward/backward delay
//! discrepancy (PipeMare delays, no techniques), (iii) async *without*
//! discrepancy (PipeDream delays — τ_fwd = τ_bkwd), and (iv) the
//! no-discrepancy case at a much larger stage count. Divergence is
//! caused by the forward delay and exacerbated by the discrepancy.

use pipemare_bench::report::{banner, series};
use pipemare_bench::workloads::ImageWorkload;
use pipemare_core::TrainConfig;
use pipemare_optim::ConstantLr;
use pipemare_pipeline::Method;

fn main() {
    banner("Figure 7", "Divergence analysis: parameter norms & accuracy of naive async training");
    let w = ImageWorkload::cifar_like();
    // An aggressive fixed LR exposes the instability (the paper uses the
    // standard recipe, which its larger delays already break).
    let lr = 0.8f32;
    let runs: Vec<(&str, Method, usize)> = vec![
        ("Sync.", Method::GPipe, w.stages),
        ("async tf!=tb (PipeMare delays)", Method::PipeMare, w.stages),
        ("async tf=tb (PipeDream delays)", Method::PipeDream, w.stages),
        ("async tf=tb, 4x stages", Method::PipeDream, 4 * w.stages),
    ];
    for (label, method, stages) in runs {
        let mut cfg =
            TrainConfig::gpipe(stages, w.n_micro, w.optimizer(), Box::new(ConstantLr(lr)));
        cfg.mode = pipemare_core::TrainMode::Pipeline(method);
        let h = w.run(cfg, 0);
        let norms: Vec<f32> = h.epochs.iter().map(|e| e.param_norm.min(9.99e5)).collect();
        let accs: Vec<f32> = h.epochs.iter().map(|e| e.metric).collect();
        series(&format!("{label} |w|"), &norms, 0);
        series(&format!("{label} acc%"), &accs, 1);
        println!("{:>28}  diverged = {}", "", h.diverged);
    }
    println!("\nPaper shape: sync stays bounded; forward delay alone can blow up the norm at");
    println!("large enough stage counts, and the fwd/bkwd discrepancy makes it diverge at a");
    println!("stage count where the no-discrepancy (PipeDream-delay) run still survives.");
}
