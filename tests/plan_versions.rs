//! Every plan states the weight version each op reads (`StageOp::reads`),
//! and a stage walking its row can reproduce it. Over every plan kind at
//! P, N ≤ 6 and 8 minibatches, these tests walk each row the way a stage
//! that owns its weights would: it counts the updates its backwards have
//! finished and applies them either *lazily* (just before the first op
//! whose version needs them) or *eagerly* (right after the last backward
//! of their minibatch). The lazy walk reproduces `reads` everywhere; the
//! eager one reads one microbatch too fresh on a known number of ops. The
//! comms read planner answers every fetch with the same versions, and a
//! discrete-event oracle draws every method's plan slot for slot.

use pipemare::comms::{plan as read_plan, PassKind, StageConfig, PROTOCOL_VERSION};
use pipemare::optim::OptimizerKind;
use pipemare::pipeline::{
    Method, PipelineClock, PipelinePlan, RecomputePolicy, StageOp, StageOpKind,
};
use pipemare::tensor::StoragePrecision;
use pipemare::theory::recomp_delay_slots;

const MINIBATCHES: usize = 8;

/// One plan of the sweep and what built it.
struct Case {
    method: Method,
    /// `Some` for `for_recompute` plans.
    policy: Option<RecomputePolicy>,
    stages: usize,
    n_micro: usize,
    plan: PipelinePlan,
}

impl Case {
    fn label(&self) -> String {
        let kind = match self.policy {
            None => format!("for_method({})", self.method.name()),
            Some(policy) => format!("for_recompute({policy:?})"),
        };
        format!("{kind} P={} N={}", self.stages, self.n_micro)
    }

    /// Whether the driver injects continuously with PipeMare's reads.
    fn pipemare_injected(&self) -> bool {
        self.method == Method::PipeMare
    }
}

/// Every plan kind: `for_method` under each method, `for_recompute`
/// stash-all and segmented at every `S ≤ P`.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for stages in 1..=6 {
        for n_micro in 1..=6 {
            for method in Method::ALL {
                let plan = PipelinePlan::for_method(method, stages, n_micro, MINIBATCHES);
                out.push(Case { method, policy: None, stages, n_micro, plan });
            }
            let policies = std::iter::once(RecomputePolicy::StashAll)
                .chain((1..=stages).map(|segment| RecomputePolicy::Segmented { segment }));
            for policy in policies {
                let plan = PipelinePlan::for_recompute(policy, stages, n_micro, MINIBATCHES);
                let method = Method::PipeMare;
                out.push(Case { method, policy: Some(policy), stages, n_micro, plan });
            }
        }
    }
    out
}

/// What one walk of a row did at each op.
struct Step {
    /// The version the walking stage computed with.
    used: usize,
    /// Updates finished by the row's earlier backwards.
    finished: usize,
    /// Finished updates not yet applied when the op ran.
    pending: usize,
}

/// Walks one row of `n_micro` microbatches per minibatch. A PipeDream
/// backward rereads whatever its forward read (weight stashing); every
/// other op computes with the weights the stage holds.
fn walk(row: &[StageOp], method: Method, n_micro: usize, lazy: bool) -> Vec<Step> {
    let mut backwards = [0usize; MINIBATCHES];
    let (mut finished, mut held) = (0, 0);
    let mut stash = vec![None; n_micro * MINIBATCHES];
    row.iter()
        .map(|op| {
            held = if lazy { held.max(op.reads.min(finished)) } else { finished };
            let used = match op.kind {
                StageOpKind::Bkwd if method == Method::PipeDream => {
                    stash[op.micro].expect("a backward follows its forward")
                }
                _ => held,
            };
            if op.kind == StageOpKind::Fwd {
                stash[op.micro] = Some(used);
            }
            let step = Step { used, finished, pending: finished - held };
            if op.kind == StageOpKind::Bkwd {
                backwards[op.micro / n_micro] += 1;
                while finished < MINIBATCHES && backwards[finished] == n_micro {
                    finished += 1;
                }
            }
            step
        })
        .collect()
}

#[test]
fn reads_are_monotone_and_never_ahead_of_finished_updates() {
    // Ops that read older weights than an earlier op of their row: all
    // of them are PipeDream backwards rereading their forward's stash.
    let mut behind = 0;
    for case in cases() {
        let label = case.label();
        for s in 0..case.stages {
            let row = case.plan.timeline(s);
            let steps = walk(row, case.method, case.n_micro, true);
            let (mut fwd, mut bkwd, mut newest) = (0, 0, 0);
            for (op, step) in row.iter().zip(&steps) {
                assert!(op.reads <= step.finished, "{label} stage {s}: {op:?} reads ahead");
                let stashed = case.method == Method::PipeDream && op.kind == StageOpKind::Bkwd;
                if op.reads < newest {
                    assert!(stashed, "{label} stage {s}: {op:?} goes back");
                    behind += 1;
                }
                newest = newest.max(op.reads);
                match op.kind {
                    StageOpKind::Fwd => {
                        assert!(op.reads >= fwd, "{label} stage {s}: forward {op:?} goes back");
                        fwd = op.reads;
                    }
                    StageOpKind::Bkwd if stashed => {
                        let forward = row
                            .iter()
                            .find(|f| f.kind == StageOpKind::Fwd && f.micro == op.micro)
                            .expect("every backward has its forward");
                        assert_eq!(op.reads, forward.reads, "{label} stage {s}: {op:?} unstashed");
                    }
                    StageOpKind::Bkwd => {
                        assert!(op.reads >= bkwd, "{label} stage {s}: backward {op:?} goes back");
                        bkwd = op.reads;
                    }
                    StageOpKind::Recomp => {}
                }
            }
        }
    }
    assert_eq!(behind, 1547);
}

#[test]
fn a_lazy_walk_reproduces_every_read_and_an_eager_one_reads_too_fresh() {
    // Ops the eager walk gets wrong, per plan family and op kind.
    #[derive(Debug, Default, PartialEq)]
    struct Wrong {
        fwd: usize,
        bkwd: usize,
        recomp: usize,
        recomp_total: usize,
    }
    let (mut gpipe, mut pipedream, mut pipemare, mut stash_all, mut segmented) = Default::default();
    for case in cases() {
        let label = case.label();
        let wrong: &mut Wrong = match (case.method, case.policy) {
            (Method::GPipe, _) => &mut gpipe,
            (Method::PipeDream, _) => &mut pipedream,
            (_, None) => &mut pipemare,
            (_, Some(RecomputePolicy::StashAll)) => &mut stash_all,
            (_, Some(RecomputePolicy::Segmented { .. })) => &mut segmented,
        };
        for s in 0..case.stages {
            let row = case.plan.timeline(s);
            let lazy = walk(row, case.method, case.n_micro, true);
            for (op, step) in row.iter().zip(&lazy) {
                assert_eq!(step.used, op.reads, "{label} stage {s}: lazy walk at {op:?}");
                if case.pipemare_injected() {
                    assert!(step.pending <= 1, "{label} stage {s}: two updates pending at {op:?}");
                    if op.kind == StageOpKind::Bkwd {
                        assert_eq!(step.pending, 0, "{label} stage {s}: update held across {op:?}");
                    }
                }
            }
            let eager = walk(row, case.method, case.n_micro, false);
            for (op, step) in row.iter().zip(&eager) {
                assert!(step.used >= op.reads, "{label} stage {s}: eager walk lags at {op:?}");
                let off = usize::from(step.used != op.reads);
                match op.kind {
                    StageOpKind::Fwd => wrong.fwd += off,
                    StageOpKind::Bkwd => wrong.bkwd += off,
                    StageOpKind::Recomp => {
                        wrong.recomp += off;
                        wrong.recomp_total += 1;
                    }
                }
            }
        }
    }
    // GPipe flushes before every minibatch, so both walks agree. A
    // PipeDream backward rereads its forward's stash, so it inherits the
    // forward's error.
    assert_eq!(gpipe, Wrong::default());
    let fwd_only = Wrong { fwd: 739, ..Wrong::default() };
    assert_eq!(pipemare, fwd_only);
    assert_eq!(stash_all, fwd_only);
    assert_eq!(pipedream, Wrong { bkwd: 739, ..fwd_only });
    assert_eq!(segmented, Wrong { fwd: 3101, bkwd: 0, recomp: 1233, recomp_total: 5712 });
}

/// One cell of [`slot_grid`]'s per-stage, per-slot grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell {
    Idle,
    Fwd(usize),
    Bkwd(usize),
}

/// The test oracle: a discrete-event model of `minibatches` minibatches
/// of `n_micro` microbatches on a `stages`-deep pipeline. Each stage runs
/// at most one op per slot; forwards flow down the chain, backwards flow
/// up, a stage prefers a ready backward (1F1B), and GPipe admits
/// minibatch k + 1 only once all of minibatch k has left stage 0.
/// Returns `grid[stage][slot]`.
fn slot_grid(method: Method, stages: usize, n_micro: usize, minibatches: usize) -> Vec<Vec<Cell>> {
    let total = n_micro * minibatches;
    // Ready queues per stage: forwards and backwards waiting to run.
    let mut fwd_ready = vec![std::collections::VecDeque::new(); stages];
    let mut bkwd_ready = vec![std::collections::VecDeque::new(); stages];
    let (mut injected, mut completed) = (0, 0);
    let mut grid = vec![Vec::new(); stages];
    while completed < total {
        let admitted = match method {
            Method::GPipe => (completed / n_micro + 1) * n_micro,
            Method::PipeDream | Method::PipeMare => total,
        };
        while injected < total.min(admitted) {
            fwd_ready[0].push_back(injected);
            injected += 1;
        }
        // Tokens sent this slot arrive for the next one.
        let (mut fwd_sent, mut bkwd_sent) = (Vec::new(), Vec::new());
        for s in 0..stages {
            let cell = if let Some(m) = bkwd_ready[s].pop_front() {
                match s.checked_sub(1) {
                    Some(up) => bkwd_sent.push((up, m)),
                    None => completed += 1,
                }
                Cell::Bkwd(m)
            } else if let Some(m) = fwd_ready[s].pop_front() {
                // The last stage turns its own forward around.
                if s + 1 < stages {
                    fwd_sent.push((s + 1, m));
                } else {
                    bkwd_sent.push((s, m));
                }
                Cell::Fwd(m)
            } else {
                Cell::Idle
            };
            grid[s].push(cell);
        }
        for (s, m) in fwd_sent {
            fwd_ready[s].push_back(m);
        }
        for (s, m) in bkwd_sent {
            bkwd_ready[s].push_back(m);
        }
    }
    grid
}

#[test]
fn the_simulated_and_closed_form_1f1b_plans_agree_op_for_op() {
    // Every plan is built from the microbatch clock and numbered in unit
    // slots; the discrete-event oracle must draw the same grid, op for op
    // and slot for slot, with the versions `PipelineClock::reads` gives.
    // Deeper pipelines than the other sweeps, for the warm-up.
    let row = |plan: &PipelinePlan, s: usize| -> Vec<_> {
        plan.timeline(s)
            .iter()
            .map(|op| (op.slot, op.kind, op.micro, op.acquires, op.reads))
            .collect()
    };
    for stages in 1..=9 {
        for n_micro in 1..=6 {
            let clock = PipelineClock::new(stages, n_micro);
            for minibatches in 1..=MINIBATCHES {
                for method in Method::ALL {
                    let plan = PipelinePlan::for_method(method, stages, n_micro, minibatches);
                    let grid = slot_grid(method, stages, n_micro, minibatches);
                    assert_eq!(plan.total(), n_micro * minibatches);
                    for (s, cells) in grid.iter().enumerate() {
                        let want: Vec<_> = cells
                            .iter()
                            .enumerate()
                            .filter_map(|(slot, cell)| {
                                let (kind, micro) = match *cell {
                                    Cell::Idle => return None,
                                    Cell::Fwd(m) => (StageOpKind::Fwd, m),
                                    Cell::Bkwd(m) => (StageOpKind::Bkwd, m),
                                };
                                let reads = clock.reads(method, kind, micro, s, None);
                                Some((slot, kind, micro, kind == StageOpKind::Fwd, reads))
                            })
                            .collect();
                        assert_eq!(
                            row(&plan, s),
                            want,
                            "{} P={stages} N={n_micro} minibatches={minibatches} stage {s}",
                            method.name()
                        );
                    }
                }
                // Stash-all recompute is PipeMare's plan.
                let mare = PipelinePlan::for_method(Method::PipeMare, stages, n_micro, minibatches);
                let stash_all = PipelinePlan::for_recompute(
                    RecomputePolicy::StashAll,
                    stages,
                    n_micro,
                    minibatches,
                );
                for s in 0..stages {
                    assert_eq!(
                        row(&stash_all, s),
                        row(&mare, s),
                        "P={stages} N={n_micro} stage {s}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_comms_read_planner_serves_every_planned_version() {
    // Configured as `TrainConfig::stage_config` does: every stage of a
    // recompute run names its App. D slots, whether or not it replays.
    for case in cases() {
        let label = case.label();
        let clock = PipelineClock::new(case.stages, case.n_micro);
        let segment = case.policy.map(|p| p.segment_size(case.stages));
        for s in 0..case.stages {
            let cfg = StageConfig {
                protocol: PROTOCOL_VERSION,
                stage: s as u32,
                stages: case.stages as u32,
                n_micro: case.n_micro as u32,
                method: case.method,
                param_len: 4,
                shard_lo: 0,
                shard_hi: 4,
                opt: OptimizerKind::Sgd { weight_decay: 0.0 },
                t2_decay: None,
                gamma: 0.0,
                recomp_slots: segment.map(|seg| recomp_delay_slots(seg, s) as u32),
                recomp_t2: false,
                warmup_steps: 0,
                weight_storage: StoragePrecision::F32,
            };
            for op in case.plan.timeline(s) {
                let pass = match op.kind {
                    StageOpKind::Fwd => PassKind::Fwd,
                    StageOpKind::Bkwd => PassKind::Bkwd,
                    StageOpKind::Recomp => PassKind::Recomp,
                };
                let (step, micro) = (op.micro / case.n_micro, op.micro % case.n_micro);
                let read = read_plan(&cfg, &clock, step as u64, micro as u32, pass)
                    .unwrap_or_else(|e| panic!("{label} stage {s}: {op:?}: {e}"));
                assert_eq!(read.version, op.reads, "{label} stage {s}: {op:?}");
            }
        }
    }
}
