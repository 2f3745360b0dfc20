//! PipeMare Recompute (§2.2, App. A.2, App. D): segmented activation
//! recomputation for the threaded pipeline executor.
//!
//! With plain 1F1B the activation of microbatch `m` at stage `s` stays
//! live for the whole forward→backward window of `2(P−1−s)+1` slots, so
//! total activation memory grows as `O(P²)`. PipeMare Recompute divides
//! the pipeline into segments of `S` consecutive stages. Only the first
//! stage of each segment (the *boundary*) stashes its input activation
//! for the full window; the other stages discard theirs after the
//! forward and recover them just in time by *replaying* the segment's
//! forward pass, started at the boundary `2S` slots before the
//! boundary's backward and sweeping forward one stage per slot. Stage
//! `j` inside a segment therefore holds its recomputed activation for
//! only `2(S−j)` slots, and the per-stage peak becomes
//! `min(2(S−j), 2(P−1−s)+1)` — exactly
//! [`ActivationModel::profile_recompute`]. At the optimal `S ≈ √P`
//! (see [`ActivationModel::optimal_segment`]) the total drops to
//! `O(P^{3/2})` (Table 5).
//!
//! The final segment of the pipeline is special: its stages sit so close
//! to the forward→backward turnaround that the backward wave arrives no
//! later than a replay could (`2(S−j) ≥ 2(P−1−s)+1` holds for *every*
//! stage of the last segment and no stage of any earlier segment), so
//! those stages simply keep their forward activations. This is the `min`
//! cap in the analytical profile, realized rather than assumed.
//!
//! This module holds the policy, the segment geometry and the
//! [`ActivationLedger`]. [`crate::plan::PipelinePlan::for_recompute`]
//! turns them into each stage's op timeline — forwards, replays,
//! backwards, and the activation acquire/release each op performs — the
//! executor runs it on real threads ([`crate::executor::run_pipeline`]),
//! and the ledger checks the live/peak counts against the model.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pipemare_telemetry::{Gauge, MetricsRegistry, NullRecorder};
use pipemare_tensor::StoragePrecision;

use crate::cost::ActivationModel;
use crate::delay::Method;
use crate::executor::{walk, Sleep};
use crate::plan::OpenPlan;

/// How the executor manages activation memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecomputePolicy {
    /// Keep every activation from forward until backward (the 1F1B
    /// default): per-stage peak `2(P−1−s)+1`.
    StashAll,
    /// PipeMare Recompute with segments of `segment` consecutive stages:
    /// per-stage peak `min(2(S − s mod S), 2(P−1−s)+1)`.
    Segmented {
        /// Segment size `S` in stages (`1 ≤ S ≤ P`).
        segment: usize,
    },
}

impl RecomputePolicy {
    /// The recompute policy with the memory-optimal segment size
    /// `S ≈ √P` for a `p`-stage pipeline.
    pub fn optimal(p: usize) -> Self {
        RecomputePolicy::Segmented { segment: ActivationModel { p }.optimal_segment() }
    }

    /// The segment size this policy uses on a `p`-stage pipeline
    /// (`StashAll` behaves like one segment spanning the pipeline).
    pub fn segment_size(&self, p: usize) -> usize {
        match *self {
            RecomputePolicy::StashAll => p,
            RecomputePolicy::Segmented { segment } => {
                assert!(segment >= 1 && segment <= p, "segment size {segment} outside 1..={p}");
                segment
            }
        }
    }

    /// The per-stage peak activation counts the analytical model
    /// predicts for this policy — what a run's measured peaks must equal.
    pub fn expected_peaks(&self, p: usize) -> Vec<usize> {
        let model = ActivationModel { p };
        match *self {
            RecomputePolicy::StashAll => model.profile_no_recompute(),
            RecomputePolicy::Segmented { segment } => model.profile_recompute(segment),
        }
    }
}

/// What a stage does in one schedule slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageOpKind {
    /// Backward pass; releases the stage's activation of this microbatch.
    Bkwd,
    /// Replay forward pass; non-boundary stages acquire their activation
    /// buffer here, boundary stages re-read their stash.
    Recomp,
    /// Forward pass; acquires an activation buffer on stages that stash
    /// (boundaries and the final segment's stages).
    Fwd,
}

/// One entry of a stage's op timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageOp {
    /// The unit-time slot the op runs in when every op takes one slot:
    /// one after the later of its row predecessor's and its token
    /// producer's. A stage runs at most one op per slot, so a plan's
    /// slots are the grid of Figure 1 ([`crate::PipelinePlan::render`]).
    pub slot: usize,
    /// Operation kind.
    pub kind: StageOpKind,
    /// Microbatch id.
    pub micro: usize,
    /// Whether this op acquires an activation buffer at this stage.
    pub acquires: bool,
    /// The weight version the op computes with ([`crate::PipelineClock::reads`]).
    pub reads: usize,
}

/// Whether stage `s` opens a segment under segment size `seg`.
pub fn is_segment_boundary(seg: usize, s: usize) -> bool {
    s.is_multiple_of(seg)
}

/// Whether stage `s` of a `p`-stage pipeline belongs to a *replay*
/// segment — one whose activations are recomputed. The final segment
/// (every `s` with `(s/S)·S + S ≥ P`) keeps its activations instead: the
/// backward wave reaches it no later than a replay could.
pub fn stage_replays(p: usize, seg: usize, s: usize) -> bool {
    (s / seg) * seg + seg < p
}

/// Live/peak activation-buffer accounting, one slot per stage.
///
/// Each stage's counters are only ever written by that stage's executor
/// thread (acquire on stash/replay, release on backward), so the
/// measured peaks are deterministic regardless of thread interleaving.
/// When built [`ActivationLedger::with_registry`], the ledger also
/// drives live `pipeline.stage.<s>.activation.{current,peak}_bytes`
/// gauges in a telemetry [`MetricsRegistry`].
#[derive(Debug)]
pub struct ActivationLedger {
    stages: Vec<StageCounters>,
    bytes_per_activation: usize,
}

#[derive(Debug)]
struct StageCounters {
    current: AtomicUsize,
    peak: AtomicUsize,
    current_bytes: Option<Arc<Gauge>>,
    peak_bytes: Option<Arc<Gauge>>,
}

impl ActivationLedger {
    /// A ledger for `stages` stages where each activation buffer counts
    /// as `bytes_per_activation` bytes (use the microbatch activation
    /// footprint of the model being simulated, or 1 to count buffers).
    pub fn new(stages: usize, bytes_per_activation: usize) -> Self {
        ActivationLedger {
            stages: (0..stages)
                .map(|_| StageCounters {
                    current: AtomicUsize::new(0),
                    peak: AtomicUsize::new(0),
                    current_bytes: None,
                    peak_bytes: None,
                })
                .collect(),
            bytes_per_activation,
        }
    }

    /// A ledger for activations of `elems_per_activation` values stored
    /// at `precision`: each buffer counts
    /// `elems_per_activation × precision.bytes_per_value()` bytes. This
    /// is how bf16 activation stashes halve the byte footprint the
    /// ledger reports — the buffer *counts* (and hence the peak
    /// profiles) are unchanged, only the bytes-per-buffer scale drops.
    pub fn with_element_precision(
        stages: usize,
        elems_per_activation: usize,
        precision: StoragePrecision,
    ) -> Self {
        ActivationLedger::new(stages, elems_per_activation * precision.bytes_per_value())
    }

    /// Bytes each tracked activation buffer counts as.
    pub fn bytes_per_activation(&self) -> usize {
        self.bytes_per_activation
    }

    /// Like [`ActivationLedger::new`], additionally publishing per-stage
    /// `pipeline.stage.<s>.activation.current_bytes` / `.peak_bytes`
    /// gauges so dashboards can watch memory live during a run.
    pub fn with_registry(
        stages: usize,
        bytes_per_activation: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let mut ledger = ActivationLedger::new(stages, bytes_per_activation);
        for (s, counters) in ledger.stages.iter_mut().enumerate() {
            counters.current_bytes =
                Some(registry.gauge(&format!("pipeline.stage.{s}.activation.current_bytes")));
            counters.peak_bytes =
                Some(registry.gauge(&format!("pipeline.stage.{s}.activation.peak_bytes")));
        }
        ledger
    }

    /// Records one activation buffer coming live at `stage`.
    pub fn acquire(&self, stage: usize) {
        let c = &self.stages[stage];
        let now = c.current.fetch_add(1, Ordering::Relaxed) + 1;
        c.peak.fetch_max(now, Ordering::Relaxed);
        if let Some(g) = &c.current_bytes {
            g.set((now * self.bytes_per_activation) as f64);
        }
        if let Some(g) = &c.peak_bytes {
            let peak = self.stages[stage].peak.load(Ordering::Relaxed);
            g.set((peak * self.bytes_per_activation) as f64);
        }
    }

    /// Records one activation buffer freed at `stage`.
    pub fn release(&self, stage: usize) {
        let c = &self.stages[stage];
        let prev = c.current.fetch_sub(1, Ordering::Relaxed);
        assert!(prev > 0, "release without matching acquire at stage {stage}");
        if let Some(g) = &c.current_bytes {
            g.set(((prev - 1) * self.bytes_per_activation) as f64);
        }
    }

    /// Buffers currently live at `stage`.
    pub fn current(&self, stage: usize) -> usize {
        self.stages[stage].current.load(Ordering::Relaxed)
    }

    /// Per-stage peak buffer counts seen so far.
    pub fn peaks(&self) -> Vec<usize> {
        self.stages.iter().map(|c| c.peak.load(Ordering::Relaxed)).collect()
    }

    /// Per-stage peaks in bytes.
    pub fn peak_bytes(&self) -> Vec<usize> {
        self.peaks().into_iter().map(|n| n * self.bytes_per_activation).collect()
    }
}

/// The per-stage peak activation counts of the
/// [`crate::PipelinePlan::for_recompute`] plan of `total` microbatches,
/// walked ([`crate::walk`]) at no cost per op — the analytical
/// cross-check the threaded executor is validated against (both must
/// equal [`RecomputePolicy::expected_peaks`] once `total ≥ 2P−1` fills
/// the steady state).
pub fn simulate_peaks(policy: RecomputePolicy, p: usize, total: usize) -> Vec<usize> {
    let (open, ledger) =
        (OpenPlan::new(Method::PipeMare, policy, p, total), ActivationLedger::new(p, 1));
    let mut work = vec![Sleep(Duration::ZERO); p];
    walk(&open, open.lag(), 1, &mut work, &NullRecorder, &ledger)
        .expect("a plan's lag never stalls");
    ledger.peaks()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_policy_uses_model_segment() {
        for p in [1usize, 4, 9, 16, 25] {
            let seg = ActivationModel { p }.optimal_segment();
            assert_eq!(RecomputePolicy::optimal(p), RecomputePolicy::Segmented { segment: seg });
        }
    }

    #[test]
    fn simulated_peaks_match_analytical_profile() {
        // The headline invariant at simulation level, across a dense
        // sweep of (P, S) — the threaded executor is checked against the
        // same profiles in the integration tests.
        for p in 1..=12usize {
            let total = 2 * p + 4;
            let model = ActivationModel { p };
            assert_eq!(
                simulate_peaks(RecomputePolicy::StashAll, p, total),
                model.profile_no_recompute(),
                "P={p} stash-all"
            );
            for seg in 1..=p {
                assert_eq!(
                    simulate_peaks(RecomputePolicy::Segmented { segment: seg }, p, total),
                    model.profile_recompute(seg),
                    "P={p} S={seg}"
                );
            }
        }
    }

    #[test]
    fn transient_peaks_never_exceed_steady_state() {
        // With fewer microbatches than the pipeline window the peaks are
        // capped by the microbatch count, never above the profile.
        let p = 8;
        let model = ActivationModel { p };
        for total in 1..2 * p {
            let peaks = simulate_peaks(RecomputePolicy::StashAll, p, total);
            for (s, (&got, &cap)) in
                peaks.iter().zip(model.profile_no_recompute().iter()).enumerate()
            {
                assert_eq!(got, cap.min(total), "P={p} total={total} stage {s}");
            }
        }
    }

    #[test]
    fn ledger_tracks_current_and_peak() {
        let reg = MetricsRegistry::new();
        let ledger = ActivationLedger::with_registry(2, 100, &reg);
        ledger.acquire(0);
        ledger.acquire(0);
        ledger.acquire(1);
        ledger.release(0);
        assert_eq!(ledger.current(0), 1);
        assert_eq!(ledger.peaks(), vec![2, 1]);
        assert_eq!(ledger.peak_bytes(), vec![200, 100]);
        let current = reg.gauge("pipeline.stage.0.activation.current_bytes");
        let peak = reg.gauge("pipeline.stage.0.activation.peak_bytes");
        assert_eq!(current.get(), 100.0);
        assert_eq!(peak.get(), 200.0);
    }

    #[test]
    fn precision_scales_ledger_bytes_not_counts() {
        let f32_ledger = ActivationLedger::with_element_precision(1, 1000, StoragePrecision::F32);
        let bf16_ledger = ActivationLedger::with_element_precision(1, 1000, StoragePrecision::Bf16);
        assert_eq!(f32_ledger.bytes_per_activation(), 4000);
        assert_eq!(bf16_ledger.bytes_per_activation(), 2000);
        for l in [&f32_ledger, &bf16_ledger] {
            l.acquire(0);
            l.acquire(0);
            l.release(0);
        }
        assert_eq!(f32_ledger.peaks(), bf16_ledger.peaks());
        assert_eq!(f32_ledger.peak_bytes(), vec![8000]);
        assert_eq!(bf16_ledger.peak_bytes(), vec![4000]);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn ledger_rejects_unmatched_release() {
        let ledger = ActivationLedger::new(1, 1);
        ledger.release(0);
    }
}
