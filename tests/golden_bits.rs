//! Frozen outputs of the in-process trainer: every step's loss bits and
//! a hash of the final parameters, for each delay method and technique
//! no benchmark workload reaches. The constants were recorded once, on
//! the trainer as it stood before the stage-update core was unified, and
//! are never edited: a change that moves one bit of any row changed the
//! numerics, not the layout.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::core::{PipelineTrainer, RecomputeCfg, TrainConfig, TrainMode};
use pipemare::nn::{ImageBatch, Mlp};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::HogwildDelays;
use pipemare::tensor::{StoragePrecision, Tensor};

const SEED: u64 = 11;
const STEPS: usize = 12;
const STAGES: usize = 4;
const N_MICRO: usize = 2;

/// Two separable blobs, `N_MICRO` microbatches of six samples.
fn minibatch(step: usize) -> Vec<ImageBatch> {
    let mut rng = StdRng::seed_from_u64(SEED + 1 + step as u64);
    (0..N_MICRO)
        .map(|_| {
            let mut x = Tensor::randn(&[6, 8], &mut rng);
            let y: Vec<usize> = (0..6).map(|i| i % 2).collect();
            for i in 0..6 {
                let shift = if i % 2 == 0 { 3.0 } else { -3.0 };
                for j in 0..4 {
                    x.data_mut()[i * 8 + j] += shift;
                }
            }
            ImageBatch { x, y }
        })
        .collect()
}

/// FNV-1a over the little-endian bytes of every parameter.
fn fnv(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in params.iter().flat_map(|p| p.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

fn lr(rate: f32) -> Box<ConstantLr> {
    Box::new(ConstantLr(rate))
}

fn gpipe() -> TrainConfig {
    TrainConfig::gpipe(STAGES, N_MICRO, sgd(), lr(0.05))
}

fn pipedream() -> TrainConfig {
    TrainConfig::pipedream(STAGES, N_MICRO, sgd(), lr(0.05))
}

fn naive() -> TrainConfig {
    TrainConfig::naive_async(STAGES, N_MICRO, sgd(), lr(0.05))
}

fn pipemare_with(opt: OptimizerKind, rate: f32) -> TrainConfig {
    TrainConfig::pipemare(STAGES, N_MICRO, opt, lr(rate), T1Rescheduler::new(8), 0.135)
}

fn pipemare() -> TrainConfig {
    pipemare_with(sgd(), 0.05)
}

fn warmup() -> TrainConfig {
    TrainConfig { warmup_steps: 3, ..pipemare() }
}

fn recompute() -> TrainConfig {
    TrainConfig { recompute: Some(RecomputeCfg::new(2)), ..pipemare() }
}

fn recompute_t2() -> TrainConfig {
    TrainConfig { recompute: Some(RecomputeCfg::new(2).with_t2()), ..pipemare() }
}

fn adamw_clip() -> TrainConfig {
    let opt = OptimizerKind::AdamW { beta1: 0.9, beta2: 0.98, eps: 1e-9, weight_decay: 1e-4 };
    TrainConfig { grad_clip: Some(0.5), ..pipemare_with(opt, 0.01) }
}

fn momentum() -> TrainConfig {
    pipemare_with(OptimizerKind::Momentum { beta: 0.9, weight_decay: 1e-4 }, 0.02)
}

fn bf16() -> TrainConfig {
    TrainConfig { weight_storage: StoragePrecision::Bf16, ..recompute_t2() }
}

fn by_elements() -> TrainConfig {
    TrainConfig { partition_by_elements: true, ..pipemare() }
}

/// Explodes within a few steps: the update that goes non-finite is
/// reverted everywhere and every later step reports NaN.
fn divergence() -> TrainConfig {
    pipemare_with(OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 }, 1e8)
}

/// Stochastic delays (App. E) with T1 by each stage's mean delay.
fn hogwild() -> TrainConfig {
    let mode = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(STAGES, N_MICRO));
    TrainConfig { mode, t2_decay: None, seed: 3, ..pipemare() }
}

struct Golden {
    name: &'static str,
    cfg: fn() -> TrainConfig,
    loss_bits: [u32; STEPS],
    param_hash: u64,
}

const NAN: u32 = 0x7fc0_0000;

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { name: "gpipe", cfg: gpipe, loss_bits: [0x401983d6, 0x3ed22a86, 0x3e8eb1ca, 0x3dab6f64, 0x3e38c320, 0x3d6c7ac5, 0x3d617519, 0x3e05f46e, 0x3da2b7ae, 0x3da1814b, 0x3d961a02, 0x3c9e4884], param_hash: 0x5d32c542ce9eb6f1 },
    Golden { name: "pipedream", cfg: pipedream, loss_bits: [0x401983d6, 0x3fe55fab, 0x3f6c8b53, 0x3e4b7b4a, 0x3e4a3590, 0x3d436466, 0x3d5ebeba, 0x3e214114, 0x3d2ef184, 0x3d6e1fea, 0x3d6e702e, 0x3c290c72], param_hash: 0x134c5a349c4dd79e },
    Golden { name: "naive", cfg: naive, loss_bits: [0x401983d6, 0x3fe55fab, 0x3f6c8b53, 0x3e4bd29e, 0x3e44c4d1, 0x3d202cf6, 0x3cdb7ecc, 0x3de7dc39, 0x3c84578b, 0x3cd42b2d, 0x3d050ca5, 0x3b8e8a0d], param_hash: 0x81b87a1ac3af7751 },
    Golden { name: "pipemare", cfg: pipemare, loss_bits: [0x401983d6, 0x3fe55fab, 0x3f7a22da, 0x3e86845f, 0x3e88367f, 0x3d6d232a, 0x3d537fa8, 0x3e215039, 0x3da0bca6, 0x3dc35006, 0x3d93e7f1, 0x3c85bd60], param_hash: 0xefe9ee4de1fd491d },
    Golden { name: "warmup", cfg: warmup, loss_bits: [0x401983d6, 0x3ed22a86, 0x3e8eb1ca, 0x3ea0c1f2, 0x3ebe78d7, 0x3dbc4d1d, 0x3d6c8985, 0x3e0daee0, 0x3dae3f3e, 0x3dc0b24b, 0x3dac0a07, 0x3cc50a3c], param_hash: 0xe15a6b504ebdfa5a },
    Golden { name: "recompute", cfg: recompute, loss_bits: [0x401983d6, 0x3fe55fab, 0x3f778c7e, 0x3e7e0f2c, 0x3e7da6ee, 0x3d76fc66, 0x3d1f7013, 0x3e12b15d, 0x3d6f5893, 0x3d945c82, 0x3d9251e4, 0x3c6e9e7e], param_hash: 0xe8a7cd25b4e3bfc0 },
    Golden { name: "recompute_t2", cfg: recompute_t2, loss_bits: [0x401983d6, 0x3fe55fab, 0x3f75c950, 0x3e7330ca, 0x3e6a6900, 0x3d77c484, 0x3d1bb90e, 0x3e17073f, 0x3d4c6c36, 0x3d788263, 0x3d8ce61f, 0x3c48025c], param_hash: 0x147510f00690d325 },
    Golden { name: "adamw_clip", cfg: adamw_clip, loss_bits: [0x401983d6, 0x400b1392, 0x3ffd601a, 0x3fa821d3, 0x3fbdcb9e, 0x3f66d5cf, 0x3f0dda62, 0x3f0f8823, 0x3f10041a, 0x3ea2b446, 0x3de9b22c, 0x3d3db994], param_hash: 0x10b282093abbd63e },
    Golden { name: "momentum", cfg: momentum, loss_bits: [0x401983d6, 0x4002b04d, 0x3fb7aeec, 0x3f01c4ef, 0x3ed4024e, 0x3da1713e, 0x3cb186ce, 0x3e0a5267, 0x3c6a1f70, 0x3c43e38b, 0x3d3ae0ea, 0x39b7faab], param_hash: 0xdd2835ba3e6cb9dd },
    Golden { name: "bf16", cfg: bf16, loss_bits: [0x401983d6, 0x3fe5c803, 0x3f76ba79, 0x3e74f5ad, 0x3e6b79d7, 0x3d785cb0, 0x3d1be601, 0x3e172934, 0x3d4e9b52, 0x3d7b0ab6, 0x3d8daeb1, 0x3c4b69a2], param_hash: 0xd98c2e4f29b6f877 },
    Golden { name: "by_elements", cfg: by_elements, loss_bits: [0x401983d6, 0x3fbecb34, 0x3f17d70e, 0x3e22fd24, 0x3e3ad01c, 0x3d760ee4, 0x3d554231, 0x3e16d78e, 0x3da18dc1, 0x3db04e22, 0x3d9811b7, 0x3c95f81d], param_hash: 0xcea680de8f15a884 },
    Golden { name: "divergence", cfg: divergence, loss_bits: [0x401983d6, 0x3f8b9add, 0x5874c803, NAN, NAN, NAN, NAN, NAN, NAN, NAN, NAN, NAN], param_hash: 0xba370903fe6a5f31 },
    // Recorded after the window fix, unlike every row above: the trainer
    // these were frozen on kept ⌈τ₀⌉ + 2 = 6 versions while delays are
    // drawn up to 7, and served a fresher version than the one drawn.
    // The first seven losses are that trainer's too; step 7 is the first
    // to draw a delay its window could not reach.
    Golden { name: "hogwild", cfg: hogwild, loss_bits: [0x401983d6, 0x3f5ea82d, 0x3ec99d2e, 0x3e35c8a2, 0x3e86fdeb, 0x3dbe800b, 0x3d97464a, 0x3e83620b, 0x3d9e5cdd, 0x3da06dd4, 0x3d90ce10, 0x3c8425e9], param_hash: 0xb68ce71739e9cb2e },
];

fn run(cfg: TrainConfig) -> ([u32; STEPS], u64, bool) {
    let model = Mlp::new(&[8, 16, 12, 10, 2]);
    let weights = vec![1.0 / cfg.n_micro as f32; cfg.n_micro];
    let mut trainer = PipelineTrainer::new(&model, cfg, SEED);
    let mut loss_bits = [0u32; STEPS];
    let mut diverged = false;
    for (step, bits) in loss_bits.iter_mut().enumerate() {
        let stats = trainer.train_minibatch(&minibatch(step), &weights);
        *bits = stats.loss.to_bits();
        diverged = stats.diverged;
    }
    (loss_bits, fnv(trainer.params()), diverged)
}

#[test]
fn every_row_reproduces_bit_for_bit() {
    let mut moved = Vec::new();
    for g in GOLDEN {
        let (loss_bits, param_hash, diverged) = run((g.cfg)());
        assert_eq!(diverged, g.loss_bits.contains(&NAN), "{}: divergence flag", g.name);
        if loss_bits != g.loss_bits || param_hash != g.param_hash {
            moved.push(format!("{}: got {loss_bits:#010x?} {param_hash:#018x}", g.name));
        }
    }
    assert!(moved.is_empty(), "rows moved:\n{}", moved.join("\n"));
}

#[test]
fn the_rows_tell_the_configurations_apart() {
    // A row that equals another pins nothing of its own.
    for (i, a) in GOLDEN.iter().enumerate() {
        for b in &GOLDEN[i + 1..] {
            assert_ne!(
                a.param_hash, b.param_hash,
                "{} and {} end on the same weights",
                a.name, b.name
            );
        }
    }
    let diverging = GOLDEN.iter().find(|g| g.name == "divergence").expect("the row exists");
    assert!(diverging.loss_bits.contains(&NAN), "lr 1e8 must take the revert path");
    assert!(diverging.loss_bits[0] != NAN, "and not before the first update");
}
