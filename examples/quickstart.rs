//! Quickstart: train one model synchronously (GPipe) and asynchronously
//! (PipeMare with T1+T2) on a synthetic image task, and compare.
//!
//! Run with: `cargo run --release --example quickstart`

use pipemare::core::{run, RunSpec, TrainConfig};
use pipemare::data::SyntheticImages;
use pipemare::nn::Mlp;
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};

fn main() {
    // 1. A synthetic CIFAR-like dataset (Gaussian class prototypes).
    let dataset = SyntheticImages::cifar_like(200, 100, 42).generate();

    // 2. A small classifier. Any `TrainModel` works; the trainer
    //    partitions its weight units into pipeline stages automatically.
    let model = Mlp::new(&[3 * 16 * 16, 64, 10]);

    let sgd = OptimizerKind::Sgd { weight_decay: 0.0 };
    let (stages, n_micro, epochs, minibatch) = (8, 2, 8, 20);
    let spec = || RunSpec { epochs, minibatch, eval_n: 100, seed: 7, ..RunSpec::default() };

    // 3. Synchronous baseline: GPipe (bubbles in the pipeline, no delay).
    let gpipe = TrainConfig::gpipe(stages, n_micro, sgd, Box::new(ConstantLr(0.05)));
    let sync = run(&model, &dataset, gpipe, spec()).expect("every minibatch fills N microbatches");

    // 4. Asynchronous PipeMare: full pipeline utilization, delayed
    //    forward weights, stabilized by T1 (learning-rate rescheduling)
    //    and T2 (discrepancy correction).
    let pipemare = TrainConfig::pipemare(
        stages,
        n_micro,
        sgd,
        Box::new(ConstantLr(0.05)),
        T1Rescheduler::new(40),
        0.135, // D ≈ e⁻², the paper's default
    );
    let asynch =
        run(&model, &dataset, pipemare, spec()).expect("every minibatch fills N microbatches");

    println!("epoch | GPipe acc% (time) | PipeMare acc% (time)");
    for (a, b) in sync.epochs.iter().zip(asynch.epochs.iter()) {
        println!(
            "{:5} | {:10.1} ({:4.1}) | {:12.1} ({:4.1})",
            a.epoch, a.metric, a.time, b.metric, b.time
        );
    }
    println!(
        "\nbest: GPipe {:.1}% vs PipeMare {:.1}% — PipeMare reaches its best \
         in {:.1}x less normalized time per epoch (no pipeline bubbles).",
        sync.best_metric(),
        asynch.best_metric(),
        sync.epochs.last().unwrap().time / asynch.epochs.last().unwrap().time,
    );
}
