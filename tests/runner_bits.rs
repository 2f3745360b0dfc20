//! Frozen epoch histories of the training runners: every record's loss,
//! metric and parameter-norm bits, its normalized time, the run label
//! and the diverged / halted flags, for an image run with a warmup
//! epoch, a diverging image run, a translation run scored by BLEU and an
//! image run the health monitor halts. The constants were recorded once
//! and are never edited: a change that moves one of them changed what an
//! epoch loop computes, not how it is written.

use std::sync::Arc;

use pipemare::core::{run, HealthHook, RunHistory, RunSpec, TrainConfig};
use pipemare::data::{SyntheticImages, SyntheticTranslation};
use pipemare::nn::{Mlp, Transformer, TransformerConfig};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::telemetry::{HealthConfig, HealthMonitor, Severity};

/// `(train_loss bits, metric bits, param_norm bits, time)` per epoch.
type Row = (u32, u32, u32, f64);

fn rows(h: &RunHistory) -> Vec<Row> {
    h.epochs
        .iter()
        .map(|e| (e.train_loss.to_bits(), e.metric.to_bits(), e.param_norm.to_bits(), e.time))
        .collect()
}

/// The rows as a Rust literal, printed when a pin fails.
fn literal(rows: &[Row]) -> String {
    rows.iter()
        .map(|(l, m, n, t)| format!("    ({l:#010x}, {m:#010x}, {n:#010x}, {t:?}),\n"))
        .collect()
}

fn check(h: &RunHistory, label: &str, diverged: bool, halted: bool, want: &[Row]) {
    let got = rows(h);
    assert_eq!(got, want, "epoch rows moved; now:\n{}", literal(&got));
    assert_eq!(h.label, label);
    assert_eq!(h.diverged, diverged);
    assert_eq!(h.halted, halted);
}

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

fn pipemare(rate: f32) -> TrainConfig {
    TrainConfig::pipemare(4, 2, sgd(), Box::new(ConstantLr(rate)), T1Rescheduler::new(8), 0.135)
}

fn mlp() -> Mlp {
    Mlp::new(&[3 * 16 * 16, 8, 10])
}

const IMAGE_T3: &[Row] = &[
    (0x400fac35, 0x42480000, 0x40c3352e, 3.3333333333334654),
    (0x3fa7fa39, 0x42700001, 0x40c3615c, 4.333333333333465),
    (0x3f8b1d0c, 0x428c0000, 0x40c3a217, 5.333333333333465),
];

#[test]
fn image_run_with_a_warmup_epoch() {
    // 42 samples at minibatch 10: the last minibatch holds 2, one per
    // microbatch.
    let ds = SyntheticImages::cifar_like(42, 10, 1).generate();
    let h = run(
        &mlp(),
        &ds,
        pipemare(0.02),
        RunSpec {
            epochs: 3,
            minibatch: 10,
            warmup_epochs: 1,
            eval_n: 10,
            seed: 7,
            ..RunSpec::default()
        },
    )
    .unwrap();
    check(&h, "PipeMare+T1+T2+T3", false, false, IMAGE_T3);
}

const IMAGE_DIVERGED: &[Row] = &[
    (0x5230f88a, 0x00000000, 0x4e345986, 1.0),
    (0x6e5a83f1, 0x00000000, 0x5c06caa4, 2.0),
    (0x7fc00000, 0x00000000, 0x7f800000, 2.0),
];

#[test]
fn diverging_image_run() {
    let ds = SyntheticImages::cifar_like(40, 10, 2).generate();
    let cfg = TrainConfig::naive_async(4, 2, sgd(), Box::new(ConstantLr(50.0)));
    let h = run(
        &mlp(),
        &ds,
        cfg,
        RunSpec { epochs: 3, minibatch: 10, eval_n: 10, seed: 3, ..RunSpec::default() },
    )
    .unwrap();
    check(&h, "PipeMare", true, false, IMAGE_DIVERGED);
}

const TRANSLATION: &[Row] = &[
    (0x403dd939, 0x00000000, 0x41b36dd9, 3.3333333333334654),
    (0x4014e2c8, 0x00000000, 0x41b37cd0, 4.333333333333465),
    (0x40066aaf, 0x00000000, 0x41b3c655, 5.333333333333465),
    (0x4000bed5, 0x00000000, 0x41b425b8, 6.333333333333465),
    (0x3ff5cefb, 0x00000000, 0x41b49795, 7.333333333333465),
    (0x3fefaf0d, 0x00000000, 0x41b4eabe, 8.333333333333465),
    (0x3fe142f7, 0x00000000, 0x41b5301e, 9.333333333333465),
    (0x3fda46f1, 0x00000000, 0x41b59173, 10.333333333333465),
    (0x3fd08560, 0x00000000, 0x41b5e9b6, 11.333333333333465),
    (0x3fbfdc47, 0x00000000, 0x41b63fc2, 12.333333333333465),
    (0x3fc85e35, 0x00000000, 0x41b6b46e, 13.333333333333465),
    (0x3fb7fd1b, 0x416279e5, 0x41b73824, 14.333333333333465),
    (0x3fbe0b43, 0x00000000, 0x41b79a9e, 15.333333333333465),
    (0x3fa970d3, 0x00000000, 0x41b7f812, 16.333333333333464),
    (0x3fa6d690, 0x00000000, 0x41b84165, 17.333333333333464),
    (0x3fa13ddb, 0x00000000, 0x41b897a9, 18.333333333333464),
    (0x3f91eaa5, 0x00000000, 0x41b8df73, 19.333333333333464),
    (0x3f9a9d83, 0x41b74655, 0x41b90040, 20.333333333333464),
    (0x3f8bc328, 0x418c546e, 0x41b919aa, 21.333333333333464),
    (0x3f90c1c8, 0x41717981, 0x41b9536f, 22.333333333333464),
];

#[test]
fn translation_run_scored_by_bleu() {
    let ds = SyntheticTranslation {
        vocab: 8,
        min_len: 5,
        max_len: 6,
        train: 24,
        test: 8,
        reverse: true,
        seed: 3,
    }
    .generate();
    let model = Transformer::new(TransformerConfig::tiny(ds.total_vocab, ds.total_vocab));
    let cfg = TrainConfig::pipemare(
        4,
        2,
        OptimizerKind::transformer_adamw(0.0),
        Box::new(ConstantLr(5e-3)),
        T1Rescheduler::new(8),
        0.135,
    );
    let h = run(
        &model,
        &ds,
        cfg,
        RunSpec {
            epochs: 20,
            minibatch: 4,
            warmup_epochs: 1,
            eval_n: 8,
            seed: 5,
            ..RunSpec::default()
        },
    )
    .unwrap();
    check(&h, "PipeMare+T1+T2+T3", false, false, TRANSLATION);
}

const IMAGE_HALTED: &[Row] =
    &[(0x4031b906, 0x42200000, 0x40c3c46c, 1.0), (0x7fc00000, 0x00000000, 0x40c3e413, 1.0)];

#[test]
fn health_halted_image_run() {
    // A spike factor of zero makes every armed step's loss a spike (a
    // Warn), so the run halts on the first step after the monitor's
    // warmup, inside the second epoch.
    let ds = SyntheticImages::cifar_like(40, 10, 4).generate();
    let cfg = HealthConfig { spike_factor: 0.0, warmup_steps: 5, ..HealthConfig::default() };
    let monitor = Arc::new(HealthMonitor::new(cfg, 4));
    let hook = HealthHook::new(monitor).halt_on(Severity::Warn);
    let h = run(
        &mlp(),
        &ds,
        pipemare(0.02),
        RunSpec {
            epochs: 3,
            minibatch: 10,
            eval_n: 10,
            seed: 5,
            health: Some(hook),
            ..RunSpec::default()
        },
    )
    .unwrap();
    check(&h, "PipeMare+T1+T2", false, true, IMAGE_HALTED);
}
