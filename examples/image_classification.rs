//! Image classification under all three pipeline methods (the paper's
//! CIFAR10 scenario at reproduction scale): a residual network trained
//! with GPipe, PipeDream and PipeMare, reporting best accuracy,
//! normalized time-to-target, throughput, and weight+optimizer memory.
//!
//! Run with: `cargo run --release --example image_classification`

use pipemare::core::stats::amortized_throughput;
use pipemare::core::{run, RunSpec, TrainConfig};
use pipemare::data::SyntheticImages;
use pipemare::nn::{CifarResNet, ResNetConfig, TrainModel};
use pipemare::optim::{OptimizerKind, StepDecayLr, T1Rescheduler};
use pipemare::pipeline::{MemoryModel, Method, PipelineClock};

fn main() {
    let dataset = SyntheticImages::cifar_like(200, 100, 11).generate();
    let model = CifarResNet::new(ResNetConfig::resnet50_standin(10));
    println!(
        "model: CifarResNet (ResNet-50 stand-in), {} params, {} weight units",
        model.param_len(),
        model.weight_units().len()
    );

    let (stages, n_micro, epochs, minibatch, seed) = (16, 2, 12, 20, 3);
    let sgd = OptimizerKind::resnet_momentum(5e-4);
    let schedule = || StepDecayLr { base: 0.05, drop_every: 80, factor: 0.1 };
    let steps_per_epoch = 200usize.div_ceil(minibatch);
    let spec = || RunSpec { epochs, minibatch, eval_n: 100, seed, ..RunSpec::default() };

    let runs = vec![
        (
            "GPipe",
            run(
                &model,
                &dataset,
                TrainConfig::gpipe(stages, n_micro, sgd, Box::new(schedule())),
                spec(),
            )
            .expect("every minibatch fills N microbatches"),
            Method::GPipe,
            false,
        ),
        (
            "PipeDream",
            run(
                &model,
                &dataset,
                TrainConfig::pipedream(stages, n_micro, sgd, Box::new(schedule())),
                spec(),
            )
            .expect("every minibatch fills N microbatches"),
            Method::PipeDream,
            false,
        ),
        (
            "PipeMare",
            run(
                &model,
                &dataset,
                TrainConfig::pipemare(
                    stages,
                    n_micro,
                    sgd,
                    Box::new(schedule()),
                    T1Rescheduler::for_step_decay(80 * steps_per_epoch),
                    0.135,
                ),
                spec(),
            )
            .expect("every minibatch fills N microbatches"),
            Method::PipeMare,
            true,
        ),
    ];

    let best_overall = runs.iter().map(|(_, h, _, _)| h.best_metric()).fold(f32::MIN, f32::max);
    let target = best_overall - 1.0; // the paper's target: best − 1.0%

    let clk = PipelineClock::new(stages, n_micro);
    let fracs = vec![1.0 / stages as f64; stages];
    let mm = MemoryModel { optimizer_copies: 3 }; // SGD + momentum

    println!(
        "\n{:10} {:>8} {:>8} {:>14} {:>11} {:>8}",
        "method", "best%", "target%", "time-to-target", "throughput", "memX"
    );
    for (name, h, method, t2) in &runs {
        let ttt =
            h.time_to_target(target).map(|t| format!("{t:.1}")).unwrap_or_else(|| "inf".into());
        println!(
            "{:10} {:>8.1} {:>8.1} {:>14} {:>11.2} {:>8.2}",
            name,
            h.best_metric(),
            target,
            ttt,
            amortized_throughput(*method, 0, epochs),
            mm.relative_to_gpipe(*method, &clk, &fracs, *t2),
        );
    }
}
