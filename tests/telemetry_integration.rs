//! End-to-end telemetry: trainer metrics through the facade crate.

use std::sync::Arc;

use pipemare::core::{
    run, run_regression_training, HealthHook, RunError, RunSpec, TrainConfig, TrainerMetrics,
};
use pipemare::data::{cpusmall_like, SyntheticImages, SyntheticTranslation};
use pipemare::nn::{LinearRegression, Mlp, Transformer, TransformerConfig};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::telemetry::{HealthConfig, HealthMonitor, MetricValue, MetricsRegistry};

#[test]
fn training_run_populates_metrics_registry() {
    let dataset = SyntheticImages::cifar_like(40, 10, 1).generate();
    let model = Mlp::new(&[3 * 16 * 16, 16, 10]);
    let mut cfg = TrainConfig::pipemare(
        4,
        2,
        OptimizerKind::Sgd { weight_decay: 0.0 },
        Box::new(ConstantLr(0.02)),
        T1Rescheduler::new(20),
        0.135,
    );
    cfg.grad_clip = Some(1e-4); // absurdly tight: every step clips
    let registry = MetricsRegistry::new();
    let metrics = TrainerMetrics::register(&registry);
    let spec = RunSpec {
        epochs: 2,
        minibatch: 10,
        eval_n: 20,
        seed: 7,
        metrics: Some(metrics),
        ..RunSpec::default()
    };
    let history = run(&model, &dataset, cfg, spec).unwrap();
    assert!(!history.diverged);

    let snap = registry.snapshot();
    let steps = match snap.get("trainer.steps") {
        Some(MetricValue::Counter(c)) => *c,
        other => panic!("trainer.steps missing or mistyped: {other:?}"),
    };
    assert!(steps >= 8, "expected ≥ 2 epochs × 4 steps, got {steps}");
    match snap.get("trainer.grad_clips") {
        Some(MetricValue::Counter(c)) => {
            assert_eq!(*c, steps, "every step must clip at threshold 1e-4")
        }
        other => panic!("trainer.grad_clips missing: {other:?}"),
    }
    match snap.get("trainer.t2_delta_norm") {
        Some(MetricValue::Gauge(g)) => assert!(g.is_finite()),
        other => panic!("trainer.t2_delta_norm missing: {other:?}"),
    }
    match snap.get("trainer.loss_hist") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count, steps),
        other => panic!("trainer.loss_hist missing: {other:?}"),
    }
    match snap.get("trainer.step_latency_us") {
        Some(MetricValue::Histogram(h)) => {
            assert_eq!(h.count, steps);
            assert!(h.sum > 0.0, "steps take nonzero time");
        }
        other => panic!("trainer.step_latency_us missing: {other:?}"),
    }

    // The snapshot renders to valid JSON through the facade.
    let text = snap.to_json().to_pretty();
    assert!(pipemare::telemetry::json::parse(&text).is_ok());
}

#[test]
fn metrics_free_training_matches_metered_training() {
    // Attaching instruments must observe, not perturb: identical seeds
    // produce identical parameters with and without metrics.
    let dataset = SyntheticImages::cifar_like(30, 10, 2).generate();
    let model = Mlp::new(&[3 * 16 * 16, 12, 10]);
    let cfg = || {
        TrainConfig::pipemare(
            3,
            2,
            OptimizerKind::Sgd { weight_decay: 0.0 },
            Box::new(ConstantLr(0.02)),
            T1Rescheduler::new(10),
            0.135,
        )
    };
    let spec = || RunSpec { epochs: 2, minibatch: 10, eval_n: 10, seed: 3, ..RunSpec::default() };
    let plain = run(&model, &dataset, cfg(), spec()).unwrap();
    let registry = MetricsRegistry::new();
    let metrics = Some(TrainerMetrics::register(&registry));
    let metered = run(&model, &dataset, cfg(), RunSpec { metrics, ..spec() }).unwrap();
    for (a, b) in plain.epochs.iter().zip(metered.epochs.iter()) {
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.param_norm, b.param_norm);
    }
}

#[test]
fn a_short_last_minibatch_fails_before_the_first_step() {
    // A minibatch that cannot fill N microbatches must be refused with a
    // typed error before anything trains, not after a few steps of the
    // first epoch: 41 samples at minibatch 10 leave a last minibatch of
    // one sample, a zero minibatch fills nothing, 9 sentences at
    // minibatch 4 leave one, and a 3-sample regression set cannot fill
    // N = 4.
    let cfg = |n_micro| {
        TrainConfig::gpipe(
            4,
            n_micro,
            OptimizerKind::Sgd { weight_decay: 0.0 },
            Box::new(ConstantLr(0.02)),
        )
    };
    let registry = MetricsRegistry::new();
    let metrics = TrainerMetrics::register(&registry);
    let spec = |minibatch| RunSpec {
        epochs: 1,
        minibatch,
        eval_n: 10,
        seed: 7,
        metrics: Some(metrics.clone()),
        ..RunSpec::default()
    };

    let images = SyntheticImages::cifar_like(41, 10, 5).generate();
    let mlp = Mlp::new(&[3 * 16 * 16, 8, 10]);
    let err = run(&mlp, &images, cfg(2), spec(10)).unwrap_err();
    assert_eq!(err, RunError::ShortMinibatch { len: 1, n_micro: 2 });
    assert_eq!(err.to_string(), "minibatch of 1 samples cannot fill 2 microbatches");
    let err = run(&mlp, &images, cfg(2), spec(0)).unwrap_err();
    assert_eq!(err, RunError::ShortMinibatch { len: 0, n_micro: 2 });

    let sentences = SyntheticTranslation {
        vocab: 8,
        min_len: 5,
        max_len: 6,
        train: 9,
        test: 4,
        reverse: true,
        seed: 3,
    }
    .generate();
    let transformer =
        Transformer::new(TransformerConfig::tiny(sentences.total_vocab, sentences.total_vocab));
    let err = run(&transformer, &sentences, cfg(2), spec(4)).unwrap_err();
    assert_eq!(err, RunError::ShortMinibatch { len: 1, n_micro: 2 });
    match registry.snapshot().get("trainer.steps") {
        Some(MetricValue::Counter(c)) => assert_eq!(*c, 0, "trained before refusing"),
        other => panic!("trainer.steps missing or mistyped: {other:?}"),
    }

    let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), 4));
    let hook = HealthHook::new(Arc::clone(&monitor));
    let ds = cpusmall_like(3, 1);
    let err = run_regression_training(&LinearRegression::new(12), &ds, cfg(4), 10, 1, Some(hook))
        .unwrap_err();
    assert_eq!(err, RunError::ShortMinibatch { len: 3, n_micro: 4 });
    match monitor.registry().snapshot().get("health.stage0.delta_norm") {
        Some(MetricValue::Gauge(g)) => assert!(g.is_nan(), "trained before refusing"),
        other => panic!("health.stage0.delta_norm missing or mistyped: {other:?}"),
    }
}
