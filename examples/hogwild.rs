//! Hogwild!-style stochastic asynchrony (paper App. E): per-stage
//! gradient delays drawn from truncated exponential distributions, with
//! and without the T1 learning-rate rescheduling heuristic.
//!
//! Run with: `cargo run --release --example hogwild`

use pipemare::core::{run, RunSpec, TrainConfig, TrainMode};
use pipemare::data::SyntheticImages;
use pipemare::nn::Mlp;
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::HogwildDelays;

fn main() {
    let dataset = SyntheticImages::cifar_like(200, 100, 13).generate();
    let model = Mlp::new(&[3 * 16 * 16, 64, 10]);
    let sgd = OptimizerKind::Sgd { weight_decay: 0.0 };
    let (stages, n_micro, epochs, minibatch) = (8, 1, 8, 20);
    let spec = || RunSpec { epochs, minibatch, eval_n: 100, seed: 7, ..RunSpec::default() };

    let delays = HogwildDelays::from_pipeline_profile(stages, n_micro);
    println!(
        "per-stage mean delays: {:?} (truncated at {})",
        delays.means.iter().map(|m| (m * 10.0).round() / 10.0).collect::<Vec<_>>(),
        delays.max()
    );

    let sync = TrainConfig::gpipe(stages, n_micro, sgd, Box::new(ConstantLr(0.05)));
    let h_sync = run(&model, &dataset, sync, spec()).expect("every minibatch fills N microbatches");

    let mut raw = TrainConfig::gpipe(stages, n_micro, sgd, Box::new(ConstantLr(0.05)));
    raw.mode = TrainMode::Hogwild(delays.clone());
    let h_raw = run(&model, &dataset, raw, spec()).expect("every minibatch fills N microbatches");

    let mut fixed = TrainConfig::gpipe(stages, n_micro, sgd, Box::new(ConstantLr(0.05)));
    fixed.mode = TrainMode::Hogwild(delays);
    fixed.t1 = Some(T1Rescheduler::new(40));
    let h_fixed =
        run(&model, &dataset, fixed, spec()).expect("every minibatch fills N microbatches");

    println!("\nepoch | Sync acc% | Hogwild acc% | Hogwild+T1 acc%");
    for i in 0..epochs {
        println!(
            "{:5} | {:9.1} | {:12.1} | {:15.1}",
            i,
            h_sync.epochs.get(i).map(|e| e.metric).unwrap_or(f32::NAN),
            h_raw.epochs.get(i).map(|e| e.metric).unwrap_or(f32::NAN),
            h_fixed.epochs.get(i).map(|e| e.metric).unwrap_or(f32::NAN),
        );
    }
    println!(
        "\nbest: sync {:.1}%, hogwild {:.1}%, hogwild+T1 {:.1}%",
        h_sync.best_metric(),
        h_raw.best_metric(),
        h_fixed.best_metric()
    );
    println!("Paper shape (Figure 19): stochastic delays cost accuracy; T1 recovers it.");
}
