//! Figure 11 (App. C.2.2): on a deeper ResNet (the ResNet-152 stand-in)
//! at a large stage count, learning-rate rescheduling alone (T1) is not
//! enough — training diverges — while adding the discrepancy correction
//! (T1+T2 with D = 0.5) converges and matches synchronous training.

use pipemare_bench::report::{banner, series};
use pipemare_core::{run, RunSpec, TrainConfig};
use pipemare_data::SyntheticImages;
use pipemare_nn::{CifarResNet, ResNetConfig, TrainModel};
use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare_pipeline::Method;

fn main() {
    banner("Figure 11", "Deep ResNet (152 stand-in): T1 alone vs T1+T2 (D = 0.5) vs synchronous");
    let ds = SyntheticImages::cifar_like(160, 80, 42).generate();
    let model = CifarResNet::new(ResNetConfig::resnet152_standin(10));
    let stages = model.weight_units().len(); // one weight unit per stage
    println!(
        "model: {} params, {} weight units -> {stages} stages\n",
        model.param_len(),
        model.weight_units().len()
    );
    let (epochs, minibatch, n_micro, seed) = (8usize, 20usize, 4usize, 3u64);
    let lr = 0.02f32; // above T1-only's threshold at this depth, within T2's
    let sgd = OptimizerKind::resnet_momentum(5e-4);

    let mk = |method: Method, t1: bool, t2: Option<f64>| {
        let mut cfg = TrainConfig::gpipe(stages, n_micro, sgd, Box::new(ConstantLr(lr)));
        cfg.mode = pipemare_core::TrainMode::Pipeline(method);
        if t1 {
            cfg.t1 = Some(T1Rescheduler::new(48));
        }
        cfg.t2_decay = t2;
        cfg
    };

    for (label, cfg) in [
        ("Sync.", mk(Method::GPipe, false, None)),
        ("PM T1 only", mk(Method::PipeMare, true, None)),
        ("PM T1+T2, D=0.5", mk(Method::PipeMare, true, Some(0.5))),
    ] {
        let h = run(
            &model,
            &ds,
            cfg,
            RunSpec { epochs, minibatch, eval_n: 100, seed, ..RunSpec::default() },
        )
        .expect("every minibatch fills N microbatches");
        series(&format!("{label} acc%"), &h.epochs.iter().map(|e| e.metric).collect::<Vec<_>>(), 1);
        println!("{:>28}  diverged = {}, best = {:.1}%", "", h.diverged, h.best_metric());
    }
    println!("\nPaper shape: T1-only diverges on the deeper model at this granularity;");
    println!("T1+T2 converges and tracks the synchronous accuracy.");
}
