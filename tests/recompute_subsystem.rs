//! Headline validation for the recompute subsystem.
//!
//! Two guarantees, both exercised under 1 **and** 2 kernel-pool threads:
//!
//! 1. **Memory accounting is exact**: the per-stage peak activation
//!    counts measured live by the threaded executor's ledger equal the
//!    closed-form `ActivationModel::profile_recompute(S)` for several
//!    `(P, S)` — the runtime realizes the paper's §3.2 memory model, it
//!    doesn't approximate it.
//! 2. **Recompute changes memory, not math**: with the T2 τ inputs held
//!    equal, training a model that discards and replays activations is
//!    bit-identical to training one that stashes everything.

use pipemare::core::{run, RunHistory, RunSpec, TrainConfig};
use pipemare::data::SyntheticImages;
use pipemare::nn::Mlp;
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{
    run_pipeline, ActivationLedger, ActivationModel, PipelinePlan, RecomputePolicy, Sleep,
};
use pipemare::telemetry::NullRecorder;
use pipemare::tensor::{pool, ThreadPool};

mod common;
use common::within;

/// `(P, S, n_micro, minibatches)` triples sized so the run reaches the
/// steady state (total microbatches ≥ 2P − 1, where the transient peaks
/// saturate the analytical cap).
const CASES: &[(usize, usize, usize, usize)] = &[(4, 2, 4, 2), (9, 3, 6, 3), (16, 4, 8, 4)];

#[test]
fn measured_peaks_match_memory_model_exactly() {
    within("measured_peaks_match_memory_model_exactly", || {
        for threads in [1usize, 2] {
            let p = ThreadPool::new(threads);
            pool::with_pool(&p, || {
                for &(stages, seg, n_micro, minibatches) in CASES {
                    let run = |policy| {
                        let plan =
                            PipelinePlan::for_recompute(policy, stages, n_micro, minibatches);
                        let ledger = ActivationLedger::new(stages, 1);
                        let mut work = vec![Sleep(std::time::Duration::ZERO); stages];
                        run_pipeline(&plan, &mut work, &NullRecorder, &ledger)
                    };
                    let report = run(RecomputePolicy::Segmented { segment: seg });
                    let model = ActivationModel { p: stages };
                    assert_eq!(
                        report.peak_activations,
                        model.profile_recompute(seg),
                        "P={stages} S={seg} threads={threads}: measured peaks diverge from model"
                    );
                    // Stash-everything control: same pipeline, no replay.
                    let stash = run(RecomputePolicy::StashAll);
                    assert_eq!(stash.peak_activations, model.profile_no_recompute());
                    assert_eq!(stash.recompute_ops, 0);
                }
            });
        }
    })
}

fn train(recompute_segment: Option<usize>, threads: usize, warmup_epochs: usize) -> RunHistory {
    let ds = SyntheticImages::cifar_like(64, 32, 2).generate();
    let mut model = Mlp::new(&[3 * 16 * 16, 64, 32, 10]);
    if let Some(seg) = recompute_segment {
        model = model.with_recompute(seg);
    }
    // PipeMare with T1 + T2 configured; `warmup_epochs` controls whether
    // the run is synchronous (T3 covering every step, so forward,
    // backward, and replay all read the same weight version — the "τ
    // inputs held equal" regime) or genuinely asynchronous.
    let cfg = TrainConfig::pipemare(
        4,
        2,
        OptimizerKind::resnet_momentum(1e-4),
        Box::new(ConstantLr(0.02)),
        T1Rescheduler::new(20),
        0.135,
    );
    let p = ThreadPool::new(threads);
    pool::with_pool(&p, || {
        run(
            &model,
            &ds,
            cfg,
            RunSpec {
                epochs: 2,
                minibatch: 16,
                warmup_epochs,
                eval_n: 32,
                seed: 23,
                ..RunSpec::default()
            },
        )
        .unwrap()
    })
}

fn assert_identical(stash: &RunHistory, rc: &RunHistory, label: &str) {
    assert_eq!(stash.epochs.len(), rc.epochs.len());
    for (i, (a, b)) in stash.epochs.iter().zip(rc.epochs.iter()).enumerate() {
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "epoch {i} {label}: loss diverged ({} vs {})",
            a.train_loss,
            b.train_loss
        );
        assert_eq!(a.metric.to_bits(), b.metric.to_bits(), "epoch {i} {label}: metric diverged");
    }
    assert_eq!(stash.diverged, rc.diverged);
}

#[test]
fn recompute_training_is_bit_identical_to_stash_everything() {
    // With the τ inputs held equal (synchronous run: forward, backward,
    // and replay all see the same weights), every segment size replays
    // the exact activations the full cache would have stashed.
    for threads in [1usize, 2] {
        let stash = train(None, threads, 2);
        for seg in [1usize, 2, 3] {
            let rc = train(Some(seg), threads, 2);
            assert_identical(&stash, &rc, &format!("seg={seg} threads={threads} (sync)"));
        }
    }
}

#[test]
fn async_recompute_discrepancy_appears_only_inside_segments() {
    // Asynchronously, the backward's weight version differs from the
    // forward's. Segment *boundary* activations are stashed at forward
    // time, so S = 1 (checkpoint every layer) is still bit-identical —
    // but S ≥ 2 recomputes intra-segment activations under the newer
    // weights, and the trajectories must part: that drift is exactly the
    // τ_recomp discrepancy App. D corrects for.
    let stash = train(None, 1, 0);
    assert_identical(&stash, &train(Some(1), 1, 0), "seg=1 (async)");
    let rc2 = train(Some(2), 1, 0);
    assert!(
        stash
            .epochs
            .iter()
            .zip(rc2.epochs.iter())
            .any(|(a, b)| a.train_loss.to_bits() != b.train_loss.to_bits()),
        "async seg=2 replay should feel the weight drift"
    );
}
