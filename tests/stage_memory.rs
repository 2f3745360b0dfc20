//! A compute stage holds what Table 1 counts, plus only the buffers
//! something reads.
//!
//! `ChainStage` runs an `Mlp` whose shards dwarf its activations under
//! `walk`, for every method at P ∈ {2, 4} and N ∈ {1, 2, 4}. Two counts
//! per stage are exact formulas in its shard size:
//! - the shard-sized buffers it holds at rest after the run: its
//!   versions, δ under T2, a read buffer only where an op reads something
//!   other than the stored latest version untouched, the finished updates
//!   not applied yet (one gradient buffer more under PipeDream, whose
//!   updates apply while a step's sum is open), and a backward scratch
//!   only when a step has a second microbatch;
//! - the shard-sized bytes one steady-state minibatch allocates: the next
//!   version while the window keeps one, and nothing for a read or a
//!   gradient sum.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::ChainStage;
use pipemare::core::TrainConfig;
use pipemare::nn::{ImageBatch, Mlp};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{walk, ActivationLedger, Method, PipelinePlan, StageOp, StageWork};
use pipemare::telemetry::NullRecorder;
use pipemare::tensor::{CountingAlloc, Tensor};

mod common;
use common::within;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Four 128 × 128 layers: a shard is at least 16 512 values, a
/// microbatch's activation 4 × 128.
const WIDTHS: [usize; 5] = [128; 5];
const ROWS: usize = 4;
const STEPS: usize = 24;
/// The minibatches whose allocations are pinned: after PipeDream's
/// deepest window (7 versions at P = 4, N = 1) has filled, and before
/// the drain, whose backwards run with no apply in between and so
/// allocate a sum each.
const STEADY: std::ops::Range<usize> = 14..17;

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

type Config = fn(usize, usize) -> TrainConfig;

const CONFIGS: [(&str, Config); 4] = [
    ("gpipe", |p, n| TrainConfig::gpipe(p, n, sgd(), Box::new(ConstantLr(0.01)))),
    ("pipedream", |p, n| TrainConfig::pipedream(p, n, sgd(), Box::new(ConstantLr(0.01)))),
    ("naive", |p, n| TrainConfig::naive_async(p, n, sgd(), Box::new(ConstantLr(0.01)))),
    ("pipemare", |p, n| {
        let (lr, t1) = (Box::new(ConstantLr(0.01)), T1Rescheduler::new(8));
        TrainConfig::pipemare(p, n, sgd(), lr, t1, 0.135)
    }),
];

/// A compute stage that tallies, per minibatch, the bytes its ops
/// allocate in blocks of at least the watched size.
struct Metered<'a> {
    inner: ChainStage<'a>,
    n_micro: usize,
    large: Vec<u64>,
}

impl StageWork for Metered<'_> {
    type Payload = Tensor;

    fn run(&mut self, op: &StageOp, input: Option<Tensor>) -> Tensor {
        let before = ALLOC.large_bytes();
        let out = self.inner.run(op, input);
        self.large[op.micro / self.n_micro] += ALLOC.large_bytes() - before;
        out
    }
}

/// What stage `s` of a `method` run holds at rest and allocates per
/// steady minibatch, in shard-sized buffers.
fn expected(method: Method, t2: bool, p: usize, n: usize, s: usize) -> (usize, usize) {
    let (versions, read, grads) = match method {
        // One version, read in place unless T2 moves it, and the last
        // step's update.
        Method::GPipe | Method::PipeMare => (1, t2, 1),
        Method::PipeDream => {
            // The window reaches back ⌈2(P−1−s)/N⌉ steps, so backwards
            // read versions behind the latest. The last forward reads
            // version ⌊(MN − 1 − (2(P−1−s)+1))/N⌋: ⌈2(P−s)/N⌉ updates
            // stay unapplied. When that is one, the update before it was
            // applied after the last step's sum opened, and its buffer
            // waits as the next sum.
            let back = (2 * (p - 1 - s)).div_ceil(n);
            (back + 1, back > 0, (2 * (p - s)).div_ceil(n).max(2))
        }
    };
    let at_rest = versions + usize::from(t2) + usize::from(read) + grads + usize::from(n > 1);
    (at_rest, usize::from(versions == 1))
}

fn minibatches(rng: &mut StdRng, n: usize) -> Vec<ImageBatch> {
    let y: Vec<usize> = (0..ROWS).map(|i| i % 2).collect();
    (0..STEPS * n)
        .map(|_| ImageBatch { x: Tensor::randn(&[ROWS, WIDTHS[0]], rng), y: y.clone() })
        .collect()
}

#[test]
fn compute_stages_hold_table_1s_buffers_and_allocate_no_read_or_sum() {
    within("compute_stages_hold_table_1s_buffers_and_allocate_no_read_or_sum", || {
        let model = Mlp::new(&WIDTHS);
        let mut rng = StdRng::seed_from_u64(55);
        for (name, cfg) in CONFIGS {
            for p in [2, 4] {
                for n in [1, 2, 4] {
                    let case = format!("{name} P={p} N={n}");
                    let cfg = cfg(p, n);
                    let (method, t2) = (cfg.mode.method().unwrap(), cfg.t2_decay.is_some());
                    let data = minibatches(&mut rng, n);
                    let micro_weights = vec![1.0 / n as f32; n];
                    let stages = ChainStage::for_run(&model, &cfg, 1, &data, &micro_weights)
                        .expect("supported");
                    let shard_bytes: Vec<usize> =
                        stages.iter().map(|st| 4 * st.shard().len()).collect();
                    ALLOC.watch_large(*shard_bytes.iter().min().unwrap());
                    let mut work: Vec<_> = stages
                        .into_iter()
                        .map(|inner| Metered { inner, n_micro: n, large: vec![0; STEPS] })
                        .collect();
                    let plan = PipelinePlan::for_method(method, p, n, STEPS);
                    let (open, ledger) = (plan.open(), ActivationLedger::new(p, 1));
                    walk(open, open.lag(), STEPS, &mut work, &NullRecorder, &ledger)
                        .expect("no stall");
                    for (s, stage) in work.into_iter().enumerate().rev() {
                        let (at_rest, per_step) = expected(method, t2, p, n, s);
                        let shard = shard_bytes[s];
                        assert_eq!(stage.inner.in_flight(), 0, "{case}: stage {s} is not at rest");
                        for t in STEADY {
                            let got = stage.large[t] as usize;
                            assert_eq!(
                                got,
                                per_step * shard,
                                "{case}: stage {s} allocates {got} bytes in minibatch {t}, \
                                 shards of {shard}"
                            );
                        }
                        let live = ALLOC.live_bytes();
                        drop(stage);
                        let held = live - ALLOC.live_bytes();
                        assert_eq!(
                            held / shard,
                            at_rest,
                            "{case}: stage {s} holds {held} bytes, shards of {shard}"
                        );
                        assert!(held % shard < shard / 8, "{case}: stage {s} holds {held} bytes");
                    }
                }
            }
        }
    });
}
