//! Weight-version delay schedules for GPipe, PipeDream and PipeMare.
//!
//! Weight versions are counted in optimizer steps: version `v` is the
//! parameter vector after `v` updates. The gradient of minibatch `t`
//! produces version `t + 1`. Table 1 of the paper gives each method's
//! delays; this module realizes them at *microbatch* granularity so that
//! the fractional delays `(2(P−i)+1)/N` emerge as the exact mean over the
//! `N` microbatches of a minibatch (verified in the tests).
//!
//! [`PipelineClock::reads`] is the one definition of the version an op
//! reads: the plans stamp it on every [`StageOp`](crate::StageOp) and
//! the comms read planner serves it. A stage walking its row reproduces
//! it by applying a finished update *lazily*, just before the first op
//! that reads it; applied eagerly, after its minibatch's last backward,
//! it reaches the forward in that backward's slot one microbatch early.
//! Lazily, a PipeMare stage holds at most one finished update, never
//! across a backward. The one read that goes back along a row is a
//! PipeDream backward: it rereads the version its forward stashed.

use pipemare_theory::{delay_slots, recomp_delay_slots};

use crate::recompute::StageOpKind;

/// The pipeline-parallel training method being simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Synchronous microbatching with pipeline flush at minibatch
    /// boundaries: `τ_fwd = τ_bkwd = 0`, throughput `N/(N+P−1)`.
    GPipe,
    /// Weight stashing: `τ_fwd = τ_bkwd = (2(P−i)+1)/N`, full throughput,
    /// extra weight memory.
    PipeDream,
    /// Asynchronous: `τ_fwd = (2(P−i)+1)/N`, `τ_bkwd = 0`, full
    /// throughput, no extra weight copies.
    PipeMare,
}

impl Method {
    /// All three methods, for sweeps.
    pub const ALL: [Method; 3] = [Method::GPipe, Method::PipeDream, Method::PipeMare];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::GPipe => "GPipe",
            Method::PipeDream => "PipeDream",
            Method::PipeMare => "PipeMare",
        }
    }
}

/// The logical clock of a `P`-stage pipeline processing `N` microbatches
/// per minibatch, answering "which weight version does stage `s` read for
/// microbatch `n` of minibatch `t`?".
///
/// # Example
///
/// ```
/// use pipemare_pipeline::{Method, PipelineClock};
///
/// let clk = PipelineClock::new(4, 2); // P = 4 stages, N = 2 microbatches
/// // Table 1: the first stage's forward delay is (2(P-1)+1)/N = 3.5 steps.
/// assert_eq!(clk.nominal_tau_fwd(0), 3.5);
/// // Deep in steady state, PipeMare's forward read at stage 0 is stale...
/// assert_eq!(clk.fwd_version(Method::PipeMare, 10, 0, 0), 6);
/// // ...while its backward read is current.
/// assert_eq!(clk.bkwd_version(Method::PipeMare, 10, 0, 0), 10);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PipelineClock {
    /// Number of pipeline stages `P`.
    pub stages: usize,
    /// Microbatches per minibatch `N`.
    pub n_micro: usize,
}

impl PipelineClock {
    /// Creates a clock.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(stages: usize, n_micro: usize) -> Self {
        assert!(stages > 0, "stages must be positive");
        assert!(n_micro > 0, "n_micro must be positive");
        PipelineClock { stages, n_micro }
    }

    /// Nominal (fractional) forward delay in optimizer steps:
    /// `τ_fwd,s = (2(P−1−s)+1)/N`.
    pub fn nominal_tau_fwd(&self, s: usize) -> f64 {
        delay_slots(self.stages, s) as f64 / self.n_micro as f64
    }

    /// Nominal forward delay *as experienced under a method* — Table 1's
    /// τ_fwd column. GPipe flushes the pipeline every minibatch, so its
    /// forward reads are never stale even though the slot distance
    /// [`delay_slots`] is unchanged.
    pub fn nominal_tau_fwd_for(&self, method: Method, s: usize) -> f64 {
        match method {
            Method::GPipe => 0.0,
            Method::PipeDream | Method::PipeMare => self.nominal_tau_fwd(s),
        }
    }

    /// Nominal backward delay for a method.
    pub fn nominal_tau_bkwd(&self, method: Method, s: usize) -> f64 {
        match method {
            Method::GPipe | Method::PipeMare => 0.0,
            Method::PipeDream => self.nominal_tau_fwd(s),
        }
    }

    /// Nominal (fractional) recompute delay in optimizer steps:
    /// `τ_recomp,s = 2(S − (s mod S))/N` — the third delay App. D folds
    /// into the T2 discrepancy correction.
    pub fn nominal_tau_recomp(&self, seg: usize, s: usize) -> f64 {
        assert!(s < self.stages, "stage {s} out of range");
        recomp_delay_slots(seg, s) as f64 / self.n_micro as f64
    }

    /// The weight version stage `s` reads in the *forward* pass of
    /// microbatch `n` of minibatch `t`.
    ///
    /// For the asynchronous schedules this is
    /// `clamp(⌊(tN + n − delay_slots(s)) / N⌋, 0, t)`, whose mean over
    /// `n ∈ [0, N)` equals `t − delay_slots(s)/N` in steady state —
    /// exactly the paper's fractional delay.
    pub fn fwd_version(&self, method: Method, t: usize, n: usize, s: usize) -> usize {
        assert!(n < self.n_micro, "microbatch {n} out of range");
        match method {
            Method::GPipe => t,
            Method::PipeDream | Method::PipeMare => {
                self.lagged(t * self.n_micro + n, delay_slots(self.stages, s))
            }
        }
    }

    /// The weight version stage `s` reads in the *backward* pass of
    /// microbatch `n` of minibatch `t`.
    pub fn bkwd_version(&self, method: Method, t: usize, n: usize, s: usize) -> usize {
        match method {
            // Synchronous: same (current) weights both ways.
            Method::GPipe => t,
            // Weight stashing: backward reuses the forward version.
            Method::PipeDream => self.fwd_version(method, t, n, s),
            // Asynchronous: whatever is in memory at backward time — all
            // updates through t have been applied at this stage.
            Method::PipeMare => t,
        }
    }

    /// The weight version stage `s` computes with when it runs a `kind`
    /// op of global microbatch `micro` under `method`; a replay reads
    /// `replay_slots` slots back ([`recomp_delay_slots`]). Panics if a
    /// replay comes without them.
    pub fn reads(
        &self,
        method: Method,
        kind: StageOpKind,
        micro: usize,
        s: usize,
        replay_slots: Option<usize>,
    ) -> usize {
        let (t, n) = (micro / self.n_micro, micro % self.n_micro);
        match kind {
            StageOpKind::Fwd => self.fwd_version(method, t, n, s),
            StageOpKind::Bkwd => self.bkwd_version(method, t, n, s),
            StageOpKind::Recomp => {
                self.lagged(micro, replay_slots.expect("a replay names its slots"))
            }
        }
    }

    /// `⌊(micro − slots)/N⌋`, clamped to the versions that exist by
    /// `micro`'s minibatch `t`: `0..=t`.
    fn lagged(&self, micro: usize, slots: usize) -> usize {
        let t = micro / self.n_micro;
        let v = (micro as i64 - slots as i64).div_euclid(self.n_micro as i64);
        v.clamp(0, t as i64) as usize
    }

    /// The number of weight versions a history buffer must retain:
    /// the maximum forward delay in whole steps, plus current.
    pub fn history_depth(&self) -> usize {
        delay_slots(self.stages, 0).div_ceil(self.n_micro) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_has_no_delay() {
        let clk = PipelineClock::new(8, 4);
        for t in 0..5 {
            for n in 0..4 {
                for s in 0..8 {
                    assert_eq!(clk.fwd_version(Method::GPipe, t, n, s), t);
                    assert_eq!(clk.bkwd_version(Method::GPipe, t, n, s), t);
                }
            }
        }
    }

    #[test]
    fn pipedream_stashes_forward_version() {
        let clk = PipelineClock::new(6, 3);
        for t in 0..8 {
            for n in 0..3 {
                for s in 0..6 {
                    assert_eq!(
                        clk.bkwd_version(Method::PipeDream, t, n, s),
                        clk.fwd_version(Method::PipeDream, t, n, s)
                    );
                }
            }
        }
    }

    #[test]
    fn pipemare_backward_is_current() {
        let clk = PipelineClock::new(6, 3);
        for t in 0..8 {
            for s in 0..6 {
                assert_eq!(clk.bkwd_version(Method::PipeMare, t, 1, s), t);
            }
        }
    }

    #[test]
    fn mean_forward_delay_equals_nominal_in_steady_state() {
        for (p, n_micro) in [(4usize, 2usize), (7, 3), (10, 1), (5, 8)] {
            let clk = PipelineClock::new(p, n_micro);
            let t = 50; // deep in steady state
            for s in 0..p {
                let mean_v: f64 = (0..n_micro)
                    .map(|n| clk.fwd_version(Method::PipeMare, t, n, s) as f64)
                    .sum::<f64>()
                    / n_micro as f64;
                let mean_delay = t as f64 - mean_v;
                let nominal = clk.nominal_tau_fwd(s);
                assert!(
                    (mean_delay - nominal).abs() < 1e-9,
                    "P={p} N={n_micro} s={s}: mean delay {mean_delay} vs nominal {nominal}"
                );
            }
        }
    }

    #[test]
    fn versions_clamped_at_start_of_training() {
        let clk = PipelineClock::new(10, 1);
        // At t = 0 every stage must read version 0 (nothing older exists).
        for s in 0..10 {
            assert_eq!(clk.fwd_version(Method::PipeMare, 0, 0, s), 0);
        }
        // Early minibatches clamp: t = 3 at stage 0 (delay 19 slots).
        assert_eq!(clk.fwd_version(Method::PipeMare, 3, 0, 0), 0);
    }

    #[test]
    fn versions_monotone_in_time_and_stage() {
        let clk = PipelineClock::new(6, 4);
        for s in 0..6 {
            let mut prev = 0;
            for t in 0..20 {
                for n in 0..4 {
                    let v = clk.fwd_version(Method::PipeMare, t, n, s);
                    assert!(v >= prev, "version went backwards");
                    assert!(v <= t);
                    prev = v;
                }
            }
        }
        // Later stages read fresher weights at the same (t, n).
        for s in 1..6 {
            let a = clk.fwd_version(Method::PipeMare, 10, 0, s - 1);
            let b = clk.fwd_version(Method::PipeMare, 10, 0, s);
            assert!(a <= b);
        }
    }

    #[test]
    fn last_stage_nearly_current() {
        let clk = PipelineClock::new(8, 4);
        // Last stage: delay 1 slot → version t for most microbatches.
        let s = 7;
        assert_eq!(clk.fwd_version(Method::PipeMare, 10, 1, s), 10);
        assert_eq!(clk.fwd_version(Method::PipeMare, 10, 0, s), 9);
    }

    #[test]
    fn nominal_tau_table_matches_closed_forms() {
        // Table 1 (+ App. D's τ_recomp column) against the closed forms,
        // for every method and stage.
        for (p, n_micro, seg) in [(4usize, 2usize, 2usize), (9, 3, 3), (16, 4, 4), (5, 1, 2)] {
            let clk = PipelineClock::new(p, n_micro);
            for s in 0..p {
                let closed = (2 * (p - 1 - s) + 1) as f64 / n_micro as f64;
                assert_eq!(clk.nominal_tau_fwd(s), closed, "P={p} s={s}");
                // τ_fwd: 0 for GPipe, (2(P−i)+1)/N otherwise.
                assert_eq!(clk.nominal_tau_fwd_for(Method::GPipe, s), 0.0);
                assert_eq!(clk.nominal_tau_fwd_for(Method::PipeDream, s), closed);
                assert_eq!(clk.nominal_tau_fwd_for(Method::PipeMare, s), closed);
                // τ_bkwd: 0 for GPipe and PipeMare, = τ_fwd for PipeDream.
                assert_eq!(clk.nominal_tau_bkwd(Method::GPipe, s), 0.0);
                assert_eq!(clk.nominal_tau_bkwd(Method::PipeDream, s), closed);
                assert_eq!(clk.nominal_tau_bkwd(Method::PipeMare, s), 0.0);
                // τ_recomp: 2(S − s mod S)/N, independent of method.
                let recomp = (2 * (seg - s % seg)) as f64 / n_micro as f64;
                assert_eq!(clk.nominal_tau_recomp(seg, s), recomp, "P={p} s={s} S={seg}");
            }
        }
    }

    #[test]
    fn degenerate_single_stage_pipeline() {
        // P = 1: a pipeline of one stage still has one slot between its
        // forward read and the weight update (τ_fwd = 1/N), zero τ_bkwd
        // for the async methods, and a trivial recompute segment.
        for n_micro in [1usize, 2, 4] {
            let clk = PipelineClock::new(1, n_micro);
            assert_eq!(clk.nominal_tau_fwd(0), 1.0 / n_micro as f64);
            for m in Method::ALL {
                assert_eq!(
                    clk.nominal_tau_bkwd(m, 0),
                    if m == Method::PipeDream { 1.0 / n_micro as f64 } else { 0.0 }
                );
            }
            assert_eq!(clk.nominal_tau_fwd_for(Method::GPipe, 0), 0.0);
            assert_eq!(clk.nominal_tau_recomp(1, 0), 2.0 / n_micro as f64);
            // Versions stay valid in the degenerate pipeline.
            assert_eq!(clk.fwd_version(Method::PipeMare, 0, 0, 0), 0);
            assert!(clk.fwd_version(Method::PipeMare, 5, 0, 0) <= 5);
        }
    }

    #[test]
    fn history_depth_bounds_all_reads() {
        for (p, n_micro) in [(4usize, 2usize), (12, 3), (9, 1)] {
            let clk = PipelineClock::new(p, n_micro);
            let depth = clk.history_depth();
            let t = 40;
            for s in 0..p {
                for n in 0..n_micro {
                    let v = clk.fwd_version(Method::PipeMare, t, n, s);
                    assert!(
                        t - v < depth,
                        "read version {v} at t={t} exceeds history depth {depth}"
                    );
                }
            }
        }
    }
}
