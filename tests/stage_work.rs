//! A stage's work is a value the executor runs, not a sleep it owns: a
//! test-only `StageWork` that relays provenance, wrapped in seeded
//! timing jitter, must see every plan executed op for op, every payload
//! arrive from the right neighbour, and the activation peaks the memory
//! model predicts — whatever the interleaving of the stage threads.

use std::time::{Duration, Instant};

use pipemare::pipeline::{
    run_pipeline, ActivationLedger, Method, PipelinePlan, RecomputePolicy, StageOp, StageOpKind,
    StageWork,
};
use pipemare::telemetry::NullRecorder;

mod common;
use common::within;

/// What a stage handed on: (producer stage, producer kind, microbatch).
type Provenance = (usize, StageOpKind, usize);

/// Logs each op with the payload it was handed and hands on where the
/// result came from.
struct Relay {
    stage: usize,
    log: Vec<(StageOpKind, usize, Option<Provenance>)>,
}

impl StageWork for Relay {
    type Payload = Provenance;

    fn run(&mut self, op: &StageOp, input: Option<Provenance>) -> Provenance {
        self.log.push((op.kind, op.micro, input));
        (self.stage, op.kind, op.micro)
    }
}

/// Yields or spins before each op for a length drawn from a hash of
/// (seed, stage, op index), then runs the wrapped work.
struct Jittered<W> {
    inner: W,
    seed: u64,
    stage: usize,
    ops: u64,
}

/// SplitMix64's finalizer: a stateless hash good enough to spread seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<W: StageWork> StageWork for Jittered<W> {
    type Payload = W::Payload;

    fn run(&mut self, op: &StageOp, input: Option<W::Payload>) -> W::Payload {
        let h = mix(self.seed ^ mix(self.stage as u64) ^ mix(self.ops << 32));
        self.ops += 1;
        match h % 4 {
            0 => {}
            1 => std::thread::yield_now(),
            _ => {
                let until = Instant::now() + Duration::from_micros((h >> 8) % 40);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        self.inner.run(op, input)
    }
}

/// The payload op `op` of stage `stage` must be handed under `plan`.
fn expected_input(plan: &PipelinePlan, stage: usize, op: &StageOp) -> Option<Provenance> {
    plan.needs(stage, op)?;
    match op.kind {
        StageOpKind::Fwd if stage == 0 => None,
        StageOpKind::Fwd => Some((stage - 1, StageOpKind::Fwd, op.micro)),
        StageOpKind::Bkwd => Some((stage + 1, StageOpKind::Bkwd, op.micro)),
        StageOpKind::Recomp => Some((stage - 1, StageOpKind::Recomp, op.micro)),
    }
}

/// Each stage's peak live activations read off its own row (a buffer is
/// held from the op that acquires it to its microbatch's backward): what
/// GPipe's fill-and-drain must measure, as 1F1B's rows must measure
/// [`RecomputePolicy::expected_peaks`].
fn row_peaks(plan: &PipelinePlan) -> Vec<usize> {
    (0..plan.stages())
        .map(|s| {
            let mut live = 0usize;
            let mut peak = 0;
            for op in plan.timeline(s) {
                live += usize::from(op.acquires);
                peak = peak.max(live);
                live -= usize::from(op.kind == StageOpKind::Bkwd);
            }
            peak
        })
        .collect()
}

#[test]
fn substituted_work_runs_every_plan_under_jitter() {
    let (n_micro, minibatches) = (2, 4);
    let recompute = RecomputePolicy::Segmented { segment: 2 };
    for stages in 2..=4 {
        assert!(n_micro * minibatches >= 2 * stages - 1, "runs reach the steady state");
        let mut plans: Vec<(&str, PipelinePlan, Vec<usize>)> = Method::ALL
            .iter()
            .map(|&m| {
                let plan = PipelinePlan::for_method(m, stages, n_micro, minibatches);
                let peaks = match m {
                    Method::GPipe => row_peaks(&plan),
                    _ => RecomputePolicy::StashAll.expected_peaks(stages),
                };
                (m.name(), plan, peaks)
            })
            .collect();
        plans.push((
            "PipeMare-R",
            PipelinePlan::for_recompute(recompute, stages, n_micro, minibatches),
            recompute.expected_peaks(stages),
        ));
        for (name, plan, peaks) in &plans {
            for seed in 0..8 {
                let (work, report) = within(&format!("{name} P={stages} seed={seed}"), {
                    let plan = plan.clone();
                    move || {
                        let mut work: Vec<_> = (0..stages)
                            .map(|stage| Jittered {
                                inner: Relay { stage, log: Vec::new() },
                                seed,
                                stage,
                                ops: 0,
                            })
                            .collect();
                        let ledger = ActivationLedger::new(stages, 1);
                        let report = run_pipeline(&plan, &mut work, &NullRecorder, &ledger);
                        (work, report)
                    }
                });
                for (s, w) in work.iter().enumerate() {
                    let expected: Vec<_> = plan
                        .timeline(s)
                        .iter()
                        .map(|op| (op.kind, op.micro, expected_input(plan, s, op)))
                        .collect();
                    assert_eq!(w.inner.log, expected, "{name} P={stages} seed={seed} stage {s}");
                }
                assert_eq!(&report.peak_activations, peaks, "{name} P={stages} seed={seed}");
            }
        }
    }
}
