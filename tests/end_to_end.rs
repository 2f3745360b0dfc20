//! Cross-crate integration tests: full training loops through the public
//! facade API, checking the paper's core claims end-to-end at tiny scale.

use pipemare::core::{run, RunSpec, TrainConfig, TrainMode};
use pipemare::data::{SyntheticImages, SyntheticTranslation};
use pipemare::nn::{Mlp, Transformer, TransformerConfig};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::Method;

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

#[test]
fn all_three_methods_learn_an_easy_image_task() {
    let ds = SyntheticImages::cifar_like(80, 40, 1).generate();
    let model = Mlp::new(&[3 * 16 * 16, 24, 10]);
    for method in Method::ALL {
        let mut cfg = TrainConfig::gpipe(4, 2, sgd(), Box::new(ConstantLr(0.02)));
        cfg.mode = TrainMode::Pipeline(method);
        if method == Method::PipeMare {
            cfg.t1 = Some(T1Rescheduler::new(20));
            cfg.t2_decay = Some(0.135);
        }
        let h = run(
            &model,
            &ds,
            cfg,
            RunSpec { epochs: 6, minibatch: 20, eval_n: 40, seed: 7, ..RunSpec::default() },
        )
        .unwrap();
        assert!(!h.diverged, "{} diverged", method.name());
        assert!(
            h.best_metric() > 40.0,
            "{} only reached {:.1}% (chance = 10%)",
            method.name(),
            h.best_metric()
        );
    }
}

#[test]
fn pipemare_matches_sync_quality_on_image_task() {
    // The paper's headline claim, at tiny scale: PipeMare's final quality
    // is within a small gap of the synchronous baseline.
    let ds = SyntheticImages::cifar_like(80, 40, 3).generate();
    let model = Mlp::new(&[3 * 16 * 16, 24, 10]);
    let sync_cfg = TrainConfig::gpipe(6, 2, sgd(), Box::new(ConstantLr(0.02)));
    let sync = run(
        &model,
        &ds,
        sync_cfg,
        RunSpec { epochs: 8, minibatch: 20, eval_n: 40, seed: 7, ..RunSpec::default() },
    )
    .unwrap();
    let pm_cfg = TrainConfig::pipemare(
        6,
        2,
        sgd(),
        Box::new(ConstantLr(0.02)),
        T1Rescheduler::new(20),
        0.135,
    );
    let pm = run(
        &model,
        &ds,
        pm_cfg,
        RunSpec { epochs: 8, minibatch: 20, eval_n: 40, seed: 7, ..RunSpec::default() },
    )
    .unwrap();
    assert!(!pm.diverged);
    assert!(
        pm.best_metric() >= sync.best_metric() - 10.0,
        "PipeMare {:.1}% too far below sync {:.1}%",
        pm.best_metric(),
        sync.best_metric()
    );
    // And finishes in less normalized time.
    assert!(
        pm.epochs.last().unwrap().time < sync.epochs.last().unwrap().time,
        "PipeMare should be faster in normalized time"
    );
}

#[test]
fn pipemare_with_warmup_runs_transformer_without_divergence() {
    let ds = SyntheticTranslation {
        vocab: 10,
        min_len: 5,
        max_len: 6,
        train: 40,
        test: 10,
        reverse: true,
        seed: 5,
    }
    .generate();
    let model = Transformer::new(TransformerConfig::tiny(ds.total_vocab, ds.total_vocab));
    let mut cfg = TrainConfig::pipemare(
        6,
        2,
        OptimizerKind::transformer_adamw(0.0),
        Box::new(ConstantLr(2e-3)),
        T1Rescheduler::new(30),
        0.1,
    );
    cfg.grad_clip = Some(25.0);
    let h = run(
        &model,
        &ds,
        cfg,
        RunSpec {
            epochs: 10,
            minibatch: 10,
            warmup_epochs: 1,
            eval_n: 10,
            seed: 3,
            ..RunSpec::default()
        },
    )
    .unwrap();
    assert!(!h.diverged);
    // Loss should be dropping across training even if BLEU stays low at
    // this tiny budget.
    let first = h.epochs.first().unwrap().train_loss;
    let last = h.epochs.last().unwrap().train_loss;
    assert!(last < first, "transformer loss did not drop: {first} -> {last}");
}

#[test]
fn warmup_epochs_cost_throughput() {
    // T3 trades throughput for quality: the same run with warmup must
    // accumulate more normalized time.
    let ds = SyntheticImages::cifar_like(40, 20, 9).generate();
    let model = Mlp::new(&[3 * 16 * 16, 16, 10]);
    let mk = || {
        TrainConfig::pipemare(
            4,
            2,
            sgd(),
            Box::new(ConstantLr(0.02)),
            T1Rescheduler::new(20),
            0.135,
        )
    };
    let no_warm = run(
        &model,
        &ds,
        mk(),
        RunSpec { epochs: 4, minibatch: 20, eval_n: 20, seed: 1, ..RunSpec::default() },
    )
    .unwrap();
    let warm = run(
        &model,
        &ds,
        mk(),
        RunSpec {
            epochs: 4,
            minibatch: 20,
            warmup_epochs: 2,
            eval_n: 20,
            seed: 1,
            ..RunSpec::default()
        },
    )
    .unwrap();
    assert!(
        warm.epochs.last().unwrap().time > no_warm.epochs.last().unwrap().time,
        "warmup epochs should cost normalized time"
    );
}

#[test]
fn hogwild_mode_trains_through_facade() {
    use pipemare::pipeline::HogwildDelays;
    let ds = SyntheticImages::cifar_like(40, 20, 2).generate();
    let model = Mlp::new(&[3 * 16 * 16, 16, 10]);
    let mut cfg = TrainConfig::gpipe(4, 2, sgd(), Box::new(ConstantLr(0.02)));
    cfg.mode = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(4, 2));
    cfg.t1 = Some(T1Rescheduler::new(20));
    let h = run(
        &model,
        &ds,
        cfg,
        RunSpec { epochs: 5, minibatch: 20, eval_n: 20, seed: 2, ..RunSpec::default() },
    )
    .unwrap();
    assert!(!h.diverged);
    assert!(h.best_metric() > 30.0, "hogwild+T1 accuracy {:.1}", h.best_metric());
}
