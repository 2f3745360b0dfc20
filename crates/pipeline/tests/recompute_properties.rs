//! Property tests over the recompute memory model and its runtime
//! realization.

use std::time::Duration;

use proptest::prelude::*;

use pipemare_pipeline::{
    simulate_peaks, walk, ActivationLedger, ActivationModel, Method, PipelinePlan, RecomputePolicy,
    Sleep, StageOpKind,
};
use pipemare_telemetry::{FlightRecorder, NO_MICROBATCH};

/// Executes `plan` without threads through the library's walk under the
/// lagged driver `run_pipeline`'s calls are — minibatch j + 1 once
/// minibatch j − d has completed, `d` the plan's lag — and returns how
/// many ops each stage got through, counted by their spans.
fn dry_run(plan: &PipelinePlan) -> Vec<usize> {
    let (open, p) = (plan.open(), plan.stages());
    let recorder = FlightRecorder::for_pipeline(p);
    let (calls, mut work) = (plan.total() / open.n_micro(), vec![Sleep(Duration::ZERO); p]);
    let _ = walk(open, open.lag(), calls, &mut work, &recorder, &ActivationLedger::new(p, 1));
    let ops = recorder.events().into_iter().filter(|e| e.microbatch != NO_MICROBATCH);
    ops.fold(vec![0; p], |mut done, e| {
        done[e.stage as usize] += 1;
        done
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimal_segment_never_loses_to_stash_all(p in 1usize..=64) {
        let am = ActivationModel { p };
        let s = am.optimal_segment();
        prop_assert!(s >= 1 && s <= p);
        prop_assert!(
            am.total_recompute(s) <= am.total_no_recompute(),
            "P={p}: optimal segment {s} uses {} > stash-all {}",
            am.total_recompute(s),
            am.total_no_recompute()
        );
    }

    #[test]
    fn optimal_segment_is_smallest_minimum(p in 1usize..=64) {
        // The documented tie-break: every smaller segment size costs
        // strictly more memory.
        let am = ActivationModel { p };
        let s = am.optimal_segment();
        let best = am.total_recompute(s);
        for smaller in 1..s {
            prop_assert!(
                am.total_recompute(smaller) > best,
                "P={p}: S={smaller} ties or beats the reported optimum S={s}"
            );
        }
    }

    #[test]
    fn simulated_peaks_equal_analytical_profile(p in 1usize..=24, seg_frac in 0.0f64..1.0) {
        // Steady state (≥ 2P−1 microbatches): the op-timeline replay must
        // land exactly on the closed-form profile for any segment size.
        let seg = 1 + (seg_frac * (p - 1) as f64).round() as usize;
        let am = ActivationModel { p };
        let peaks = simulate_peaks(RecomputePolicy::Segmented { segment: seg }, p, 2 * p + 3);
        prop_assert_eq!(peaks, am.profile_recompute(seg), "P={} S={}", p, seg);
    }

    #[test]
    fn every_plan_runs_to_completion_in_causal_order(
        which in 0usize..5,
        p in 1usize..=8,
        n_micro in 1usize..=5,
        minibatches in 1usize..=4,
        seg_frac in 0.0f64..1.0,
    ) {
        // The executor's deadlock-freedom, without threads or clocks: for
        // every method and policy each stage's list can be walked to its
        // end by only ever running an op whose token has arrived, under
        // the lagged driver (GPipe's lag 0 is its flush).
        let plan = match which {
            3 => PipelinePlan::for_recompute(RecomputePolicy::StashAll, p, n_micro, minibatches),
            4 => {
                let segment = 1 + (seg_frac * (p - 1) as f64).round() as usize;
                let policy = RecomputePolicy::Segmented { segment };
                PipelinePlan::for_recompute(policy, p, n_micro, minibatches)
            }
            m => PipelinePlan::for_method(Method::ALL[m], p, n_micro, minibatches),
        };
        let total = n_micro * minibatches;
        let done = dry_run(&plan);
        for (s, &done) in done.iter().enumerate() {
            let ops = plan.timeline(s);
            prop_assert_eq!(done, ops.len(), "stage {} stuck at op {}", s, done);
            let at = |kind, m| {
                let mut hits = (0..ops.len()).filter(|&i| ops[i].kind == kind && ops[i].micro == m);
                (hits.next(), hits.next())
            };
            let replays = ops.iter().any(|op| op.kind == StageOpKind::Recomp);
            for m in 0..total {
                let (f, b) = (at(StageOpKind::Fwd, m), at(StageOpKind::Bkwd, m));
                prop_assert!(f.0.is_some() && f.1.is_none(), "stage {} F{} not exactly once", s, m);
                prop_assert!(b.0.is_some() && b.1.is_none(), "stage {} B{} not exactly once", s, m);
                prop_assert!(f.0 < b.0, "stage {} B{} before F{}", s, m, m);
                let r = at(StageOpKind::Recomp, m);
                prop_assert_eq!(r.0.is_some(), replays, "stage {} R{}", s, m);
                prop_assert!(r.1.is_none(), "stage {} R{} twice", s, m);
                if let Some(r) = r.0 {
                    prop_assert!(f.0 < Some(r) && Some(r) < b.0, "stage {} R{} outside (F, B)", s, m);
                }
            }
            prop_assert_eq!(ops.len(), (2 + usize::from(replays)) * total);
        }
    }
}
