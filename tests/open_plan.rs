//! The open-ended plan: each stage's row is a lazy stream from the
//! microbatch clock, and a driver keeps the stages alive across
//! per-minibatch calls, returning from call `j` once minibatch `j − d`'s
//! update has landed. The rows cut to `K` minibatches must be the
//! `K`-minibatch plan's, `d` must be the least lag that never holds a
//! stage back, and `K` threaded calls must run every stage's ops exactly
//! as one `run_pipeline` of the `K`-minibatch plan does.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pipemare::pipeline::{
    run_pipeline, walk, with_pipeline, ActivationLedger, Method, OpenPlan, PipelinePlan,
    RecomputePolicy, StageOp, StageOpKind, StageWork, Stall,
};
use pipemare::telemetry::NullRecorder;

mod common;
use common::within;

/// A plan kind's `K`-minibatch plan.
type Cut = Box<dyn Fn(usize) -> PipelinePlan>;
/// A stage's executed ops, readable while the stage runs.
type Log = Arc<Mutex<Vec<(StageOpKind, usize)>>>;

/// Every plan kind at `p` stages and `n` microbatches: the three methods
/// stashing everything, and PipeMare-R at every segment size.
fn cases(p: usize, n: usize) -> Vec<(String, OpenPlan, Cut)> {
    let mut cases: Vec<(String, OpenPlan, Cut)> = Method::ALL
        .iter()
        .map(|&m| {
            let open = OpenPlan::new(m, RecomputePolicy::StashAll, p, n);
            let cut: Cut = Box::new(move |k| PipelinePlan::for_method(m, p, n, k));
            (m.name().to_string(), open, cut)
        })
        .collect();
    for segment in 1..=p {
        let policy = RecomputePolicy::Segmented { segment };
        let open = OpenPlan::new(Method::PipeMare, policy, p, n);
        let cut: Cut = Box::new(move |k| PipelinePlan::for_recompute(policy, p, n, k));
        cases.push((format!("PipeMare-R S={segment}"), open, cut));
    }
    cases
}

/// The fields of an op that do not depend on how slots are numbered.
fn content(ops: &[StageOp]) -> Vec<(StageOpKind, usize, bool, usize)> {
    ops.iter().map(|op| (op.kind, op.micro, op.acquires, op.reads)).collect()
}

/// Logs every op a stage runs.
struct Ops(Vec<StageOp>);

impl StageWork for Ops {
    type Payload = ();

    fn run(&mut self, op: &StageOp, _input: Option<()>) {
        self.0.push(*op);
    }
}

/// Each stage's ops under the library's thread-free walk of `calls`
/// `minibatch()` calls of a driver that waits `lag` minibatches behind
/// the one it injected.
fn walk_ops(open: &OpenPlan, calls: usize, lag: usize) -> Result<Vec<Vec<StageOp>>, Stall> {
    let mut ops: Vec<_> = (0..open.stages()).map(|_| Ops(Vec::new())).collect();
    let ledger = ActivationLedger::new(open.stages(), 1);
    walk(open, lag, calls, &mut ops, &NullRecorder, &ledger)?;
    Ok(ops.into_iter().map(|ops| ops.0).collect())
}

#[test]
fn lazy_rows_cut_to_k_minibatches_are_the_plan_and_the_lag_is_tight() {
    let started = Instant::now();
    for p in 1..=6 {
        for n in 1..=6 {
            for (name, open, cut) in cases(p, n) {
                // d = 0 for GPipe, ⌈2(P−1)/N⌉ for the others.
                let d = if name == "GPipe" { 0 } else { (2 * (p - 1)).div_ceil(n) };
                assert_eq!(open.lag(), d, "{name} P={p} N={n}");
                for k in 1..=4 {
                    let plan = cut(k);
                    assert_eq!(plan.open(), &open, "{name} P={p} N={n} K={k}");
                    let walked = walk_ops(&open, k, d)
                        .unwrap_or_else(|_| panic!("{name} P={p} N={n} K={k}: lag {d} stalls"));
                    for (s, walked) in walked.iter().enumerate() {
                        let want = content(plan.timeline(s));
                        let lazy: Vec<_> =
                            open.row(s).filter(|op| op.micro < k * n).take(want.len()).collect();
                        let at = format!("{name} P={p} N={n} K={k} stage {s}");
                        assert_eq!(content(&lazy), want, "{at}: lazy row");
                        assert_eq!(content(walked), want, "{at}: lagged walk");
                    }
                    // One minibatch less of lag stalls as soon as a call
                    // has to wait at all.
                    if d > 0 {
                        let stalls = walk_ops(&open, k, d - 1).is_err();
                        assert_eq!(stalls, k >= d, "{name} P={p} N={n} K={k}: lag {}", d - 1);
                    }
                }
            }
        }
    }
    assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
}

/// Logs each op into a log the test can read between calls, after a
/// seeded spin of up to 40 µs.
struct Logged {
    log: Log,
    seed: u64,
}

impl StageWork for Logged {
    type Payload = ();

    fn run(&mut self, op: &StageOp, _input: Option<()>) {
        // SplitMix64's increment and finalizer, enough to spread seeds.
        self.seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let until = Instant::now() + Duration::from_micros((z ^ (z >> 31)) % 40);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        self.log.lock().unwrap().push((op.kind, op.micro));
    }
}

fn logged(p: usize, seed: u64) -> (Vec<Logged>, Vec<Log>) {
    let logs: Vec<_> = (0..p).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let work =
        (0..p).map(|s| Logged { log: Arc::clone(&logs[s]), seed: seed ^ s as u64 }).collect();
    (work, logs)
}

#[test]
fn minibatch_calls_run_the_plan_and_return_after_the_lagged_update() {
    let k = 4;
    for (p, n) in [(2, 1), (3, 2), (4, 3), (4, 1), (3, 3), (2, 3)] {
        let kinds = ["GPipe", "PipeDream", "PipeMare", "PipeMare-R S=2"];
        for (name, open, cut) in cases(p, n).into_iter().filter(|c| kinds.contains(&&*c.0)) {
            let (plan, d) = (cut(k), open.lag());
            let reference = within(&format!("run_pipeline {name} P={p} N={n}"), {
                let plan = plan.clone();
                move || {
                    let (mut work, reference) = logged(p, 1);
                    run_pipeline(&plan, &mut work, &NullRecorder, &ActivationLedger::new(p, 1));
                    reference
                }
            });
            let case = format!("with_pipeline {name} P={p} N={n}");
            let logs = within(&case.clone(), move || {
                let (mut work, logs) = logged(p, 2);
                let ledger = ActivationLedger::new(p, 1);
                with_pipeline(&open, &mut work, &NullRecorder, &ledger, |pipe| {
                    for j in 0..k {
                        pipe.minibatch();
                        let stage0 = logs[0].lock().unwrap().clone();
                        let at = format!("{case} call {j}");
                        if let Some(landed) = (j + 1).checked_sub(d).filter(|&l| l > 0) {
                            // Minibatch j − d's last backward has left stage 0.
                            let b = (StageOpKind::Bkwd, landed * n - 1);
                            assert!(stage0.contains(&b), "{at}: {stage0:?}");
                        }
                        let next = (j + 1) * n;
                        let early =
                            stage0.iter().find(|(kind, m)| *kind == StageOpKind::Fwd && *m >= next);
                        assert!(early.is_none(), "{at}: ran {early:?} before its call");
                        // A lagged call does not drain: its own minibatch's last
                        // backward waits behind the next call's first forward.
                        let own = (StageOpKind::Bkwd, next - 1);
                        assert!(d == 0 || !stage0.contains(&own), "{at}: drained");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
                logs
            });
            for s in 0..p {
                let want: Vec<_> = plan.timeline(s).iter().map(|op| (op.kind, op.micro)).collect();
                assert_eq!(*reference[s].lock().unwrap(), want, "{name} P={p} N={n} stage {s}");
                assert_eq!(*logs[s].lock().unwrap(), want, "{name} P={p} N={n} stage {s}");
            }
        }
    }
}
