//! A stage's work is a value the executor runs, not a sleep it owns: a
//! test-only `StageWork` that relays provenance, wrapped in seeded
//! timing jitter, must see every plan executed op for op, every payload
//! arrive from the right neighbour, and the activation peaks the memory
//! model predicts — whatever the interleaving of the stage threads. The
//! library's compute stages, `ChainStage`, must train an `Mlp` to the
//! in-process trainer's bits however they are driven, reading exactly the
//! version each op names.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::ChainStage;
use pipemare::core::{PipelineTrainer, TrainConfig};
use pipemare::nn::{ImageBatch, Mlp};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{
    run_pipeline, walk, ActivationLedger, Method, PipelinePlan, RecomputePolicy, StageOp,
    StageOpKind, StageWork,
};
use pipemare::telemetry::NullRecorder;
use pipemare::tensor::Tensor;

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

/// golden_bits.rs's run: its model, seed and microbatches (two
/// separable blobs, six samples each, seeded per step), generalized to
/// any `N` (`N = 2` is golden_bits.rs's).
const WIDTHS: [usize; 5] = [8, 16, 12, 10, 2];
const SEED: u64 = 11;

fn minibatch(step: usize, n_micro: usize) -> Vec<ImageBatch> {
    let mut rng = StdRng::seed_from_u64(SEED + 1 + step as u64);
    (0..n_micro)
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

/// golden_bits.rs's `gpipe`, `pipedream`, `naive` and `pipemare` rows at
/// `P` stages and `N` microbatches.
type Config = fn(usize, usize) -> TrainConfig;

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

const CONFIGS: [(&str, Config); 4] = [
    ("gpipe", |p, n| TrainConfig::gpipe(p, n, sgd(), Box::new(ConstantLr(0.05)))),
    ("pipedream", |p, n| TrainConfig::pipedream(p, n, sgd(), Box::new(ConstantLr(0.05)))),
    ("naive", |p, n| TrainConfig::naive_async(p, n, sgd(), Box::new(ConstantLr(0.05)))),
    ("pipemare", |p, n| {
        let (lr, t1) = (Box::new(ConstantLr(0.05)), T1Rescheduler::new(8));
        TrainConfig::pipemare(p, n, sgd(), lr, t1, 0.135)
    }),
];

/// Each step's loss bits and the hash of the final weights.
type Outcome = (Vec<u32>, u64);

/// The in-process trainer's run of `steps` minibatches.
fn reference(cfg: Config, p: usize, n: usize, steps: usize) -> Outcome {
    let model = Mlp::new(&WIDTHS);
    let mut trainer = PipelineTrainer::new(&model, cfg(p, n), SEED);
    let weights = vec![1.0 / n as f32; n];
    let losses = (0..steps)
        .map(|step| trainer.train_minibatch(&minibatch(step, n), &weights).loss.to_bits())
        .collect();
    (losses, fnv(trainer.params()))
}

/// Runs a compute stage, which itself asserts that every op reads the
/// version it names, and checks after every op what the stage keeps: one
/// version and at most one finished update, or under PipeDream's weight
/// stashing, when a forward runs, at most one version per microbatch in
/// flight (this one included).
struct Probe<'a> {
    inner: ChainStage<'a>,
    stashing: bool,
}

impl<'a> StageWork for Probe<'a> {
    type Payload = Tensor;

    fn run(&mut self, op: &StageOp, input: Option<Tensor>) -> Tensor {
        let out = self.inner.run(op, input);
        let stage = self.inner.shard().stage();
        let held = self.inner.shard().state().window.len();
        if !self.stashing {
            assert_eq!(held, 1, "stage {stage}: {op:?} keeps {held} versions");
            assert!(self.inner.pending() <= 1, "stage {stage}: {op:?} holds two updates");
        } else if op.kind == StageOpKind::Fwd {
            let in_flight = self.inner.in_flight();
            assert!(held <= in_flight, "stage {stage}: {held} versions, {in_flight} in flight");
        }
        out
    }
}

/// How a compute run is driven.
#[derive(Clone, Copy, Debug)]
enum Driver {
    /// `walk` at the plan's lag, on the calling thread.
    Walk,
    /// `run_pipeline`'s stage threads.
    Threads,
    /// The stage threads, each op delayed by seeded jitter.
    Jittered(u64),
}

/// The compute stages' run of `steps` minibatches, checked op by op.
fn computed(cfg: Config, p: usize, n: usize, steps: usize, driver: Driver) -> Outcome {
    let model = Mlp::new(&WIDTHS);
    let cfg = cfg(p, n);
    let method = cfg.mode.method().expect("a pipeline method");
    let data: Vec<ImageBatch> = (0..steps).flat_map(|step| minibatch(step, n)).collect();
    let weights = vec![1.0 / n as f32; n];
    let stages = ChainStage::for_run(&model, &cfg, SEED, &data, &weights).expect("supported");
    let stashing = method == Method::PipeDream;
    let mut work: Vec<_> = stages.into_iter().map(|inner| Probe { inner, stashing }).collect();
    let plan = PipelinePlan::for_method(method, p, n, steps);
    let ledger = ActivationLedger::new(p, 1);
    match driver {
        Driver::Walk => {
            let open = plan.open();
            walk(open, open.lag(), steps, &mut work, &NullRecorder, &ledger).expect("no stall");
        }
        Driver::Threads => {
            run_pipeline(&plan, &mut work, &NullRecorder, &ledger);
        }
        Driver::Jittered(seed) => {
            let mut jittered: Vec<_> = work
                .into_iter()
                .enumerate()
                .map(|(stage, inner)| Jittered { inner, seed, stage, ops: 0 })
                .collect();
            run_pipeline(&plan, &mut jittered, &NullRecorder, &ledger);
            work = jittered.into_iter().map(|j| j.inner).collect();
        }
    }
    let losses = work[p - 1].inner.losses().iter().map(|l| l.to_bits()).collect();
    let params: Vec<f32> =
        work.iter_mut().flat_map(|w| w.inner.apply_finished().to_vec()).collect();
    (losses, fnv(&params))
}

#[test]
fn compute_stages_train_to_the_trainers_bits_however_driven() {
    let (p, n, steps) = (4, 2, 12);
    for (name, cfg) in CONFIGS {
        let want = reference(cfg, p, n, steps);
        for driver in [Driver::Walk, Driver::Threads, Driver::Jittered(0), Driver::Jittered(1)] {
            let case = format!("{name} under {driver:?}");
            let got = within(&case, move || computed(cfg, p, n, steps, driver));
            assert_eq!(got, want, "{case}");
        }
    }
}

#[test]
fn every_plan_walked_by_compute_stages_reads_what_each_op_names() {
    // Eight minibatches reach the steady state of every P ≤ 4 (2P − 1 ≤ 8
    // microbatches at N = 1).
    let steps = 8;
    for (name, cfg) in CONFIGS {
        for p in 1..=4 {
            for n in 1..=4 {
                let case = format!("{name} P={p} N={n}");
                let got = within(&case, move || computed(cfg, p, n, steps, Driver::Walk));
                assert_eq!(got, reference(cfg, p, n, steps), "{case}");
            }
        }
    }
}
