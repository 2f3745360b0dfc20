//! Determinism regression test for the parallel kernel layer.
//!
//! Training must be **bit-identical** across thread-pool widths: the
//! pool splits GEMMs over fixed `MC`-row chunks and elementwise ops over
//! fixed-size ranges, never changing per-element accumulation order, so
//! a 1-thread and a 4-thread run of the same training job must produce
//! the same loss trace, metric trace, and parameter norms to the last
//! bit. This is the `PIPEMARE_NUM_THREADS=1` vs `4` guarantee from the
//! kernel-layer design, exercised through the full public training path.
//!
//! The guarantee is dispatch-tier-agnostic: the GEMMs here run on
//! whatever microkernel tier `simd_level()` resolved to, and CI runs
//! the suite both with `PIPEMARE_SIMD=off` (scalar) and with default
//! detection (AVX2/AVX-512 where the runner supports it), so this test
//! pins thread-count determinism under both scalar and SIMD kernels.

use pipemare::core::{run, RunHistory, RunSpec, TrainConfig};
use pipemare::data::SyntheticImages;
use pipemare::nn::Mlp;
use pipemare::optim::{ConstantLr, OptimizerKind};
use pipemare::tensor::{pool, ThreadPool};

fn train_with_threads(threads: usize) -> RunHistory {
    let ds = SyntheticImages::cifar_like(96, 32, 2).generate();
    // Hidden layer wide enough that the forward/backward GEMMs cross the
    // kernel layer's parallel-dispatch threshold (minibatch 32 × 768
    // inputs × 256 hidden ≈ 1.3e7 flops per product).
    let model = Mlp::new(&[3 * 16 * 16, 256, 10]);
    let cfg = TrainConfig::gpipe(
        4,
        2,
        OptimizerKind::Sgd { weight_decay: 0.0 },
        Box::new(ConstantLr(0.02)),
    );
    let p = ThreadPool::new(threads);
    pool::with_pool(&p, || {
        run(
            &model,
            &ds,
            cfg,
            RunSpec { epochs: 3, minibatch: 32, eval_n: 32, seed: 11, ..RunSpec::default() },
        )
        .unwrap()
    })
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    let tier = pipemare::tensor::kernels::simd_level();
    println!("dispatched microkernel tier: {}", tier.name());
    let one = train_with_threads(1);
    let four = train_with_threads(4);
    assert_eq!(one.epochs.len(), four.epochs.len());
    for (i, (a, b)) in one.epochs.iter().zip(four.epochs.iter()).enumerate() {
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "epoch {i}: loss diverged between 1 and 4 threads ({} vs {})",
            a.train_loss,
            b.train_loss
        );
        assert_eq!(
            a.metric.to_bits(),
            b.metric.to_bits(),
            "epoch {i}: eval metric diverged between 1 and 4 threads"
        );
    }
    assert_eq!(one.diverged, four.diverged);
}
