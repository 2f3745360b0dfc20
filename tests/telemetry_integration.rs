//! End-to-end telemetry: trainer metrics through the facade crate.

use pipemare::core::{run_image_training_observed, TrainConfig, TrainerMetrics};
use pipemare::data::SyntheticImages;
use pipemare::nn::Mlp;
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::telemetry::{MetricValue, MetricsRegistry};

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
    let history =
        run_image_training_observed(&model, &dataset, cfg, 2, 10, 0, 20, 7, Some(metrics), None);
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
    let plain = run_image_training_observed(&model, &dataset, cfg(), 2, 10, 0, 10, 3, None, None);
    let registry = MetricsRegistry::new();
    let metered = run_image_training_observed(
        &model,
        &dataset,
        cfg(),
        2,
        10,
        0,
        10,
        3,
        Some(TrainerMetrics::register(&registry)),
        None,
    );
    for (a, b) in plain.epochs.iter().zip(metered.epochs.iter()) {
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.param_norm, b.param_norm);
    }
}

#[test]
fn a_short_last_minibatch_fails_before_the_first_step() {
    // 41 samples at minibatch 10 leave a last minibatch of one sample,
    // which cannot fill N = 2 microbatches: the run must refuse before it
    // trains anything, not after four steps of the first epoch.
    let dataset = SyntheticImages::cifar_like(41, 10, 5).generate();
    let model = Mlp::new(&[3 * 16 * 16, 8, 10]);
    let cfg = TrainConfig::gpipe(
        4,
        2,
        OptimizerKind::Sgd { weight_decay: 0.0 },
        Box::new(ConstantLr(0.02)),
    );
    let registry = MetricsRegistry::new();
    let metrics = TrainerMetrics::register(&registry);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_image_training_observed(&model, &dataset, cfg, 1, 10, 0, 10, 7, Some(metrics), None)
    }));
    let message = *run
        .expect_err("a 1-sample minibatch cannot fill 2 microbatches")
        .downcast::<String>()
        .expect("a formatted panic message");
    assert_eq!(message, "minibatch of 1 samples cannot fill 2 microbatches");
    match registry.snapshot().get("trainer.steps") {
        Some(MetricValue::Counter(c)) => assert_eq!(*c, 0, "trained before refusing"),
        other => panic!("trainer.steps missing or mistyped: {other:?}"),
    }
}
