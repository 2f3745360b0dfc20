//! Derived pipeline timeline analysis.
//!
//! Folds a recorded event stream into per-stage utilization, the overall
//! bubble fraction, and a measured per-stage forward delay to compare
//! against the paper's nominal `τ_fwd,i = (2(P−i)+1)/N`. This is how a
//! perf PR proves its win: record, summarize, diff against the model.
//!
//! Every per-stage reading of a trace goes through one grouping here,
//! `StageFold`: it finds the stage count once and buckets each stage's
//! forward, backward and replay spans and its two kinds of wait.
//! It answers busy time clipped to a window and τ samples through
//! `delay_slot_samples`, the one definition of measured τ. The summary
//! reads the whole trace; `pm trace drift` (`analyze`) reads clipped
//! windows; the live store (`store`) reads the spans that ended since its
//! last sample.

use crate::event::{SpanKind, TraceEvent};
use crate::json::Value;

/// Per-stage aggregate of one recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTimeline {
    /// Stage index.
    pub stage: u32,
    /// Microseconds of forward compute.
    pub fwd_us: u64,
    /// Microseconds of backward compute.
    pub bkwd_us: u64,
    /// Microseconds of replay (recompute) forward compute.
    pub recomp_us: u64,
    /// Microseconds spent blocked waiting on either queue
    /// (`wait_fwd_us + wait_bkwd_us`).
    pub wait_us: u64,
    /// Microseconds spent blocked waiting for forward input.
    pub wait_fwd_us: u64,
    /// Microseconds spent blocked waiting for backward input.
    pub wait_bkwd_us: u64,
    /// Fraction of the run span this stage spent computing.
    pub utilization: f64,
    /// Measured mean forward delay in microbatch slots: the number of
    /// weight updates (backward completions at this stage, its own
    /// included) between a microbatch's forward start and its backward
    /// start. Comparable to the nominal `2(P−1−s)+1` slots; divide by
    /// `N` for optimizer steps.
    pub measured_delay_slots: f64,
    /// Measured mean recompute delay in microbatch slots: the number of
    /// backward starts at this stage between a microbatch's replay start
    /// and its backward start. Comparable to the nominal `2(S − s mod S)`
    /// of App. D (divide by `N` for τ_recomp in optimizer steps); 0 when
    /// the stage never replays.
    pub measured_recomp_delay_slots: f64,
}

/// Aggregate view of one recorded pipeline run.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineTimelineSummary {
    /// Per-stage aggregates, indexed by stage.
    pub stages: Vec<StageTimeline>,
    /// Wall-clock span of the recorded events (first start to last end),
    /// microseconds.
    pub span_us: u64,
    /// Microbatches that completed a backward at stage 0 (== microbatches
    /// fully processed).
    pub microbatches: usize,
    /// `1 −` mean stage utilization: the fraction of stage-time lost to
    /// pipeline bubbles, fill/drain, and queueing.
    pub bubble_fraction: f64,
}

impl PipelineTimelineSummary {
    /// Builds a summary from a recorded event stream.
    ///
    /// Stages are discovered from `Forward`/`Backward` events; traces
    /// with no compute events produce an empty summary.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let fold = StageFold::new(events, 0, |_| true);
        if fold.stages.is_empty() {
            return PipelineTimelineSummary {
                stages: Vec::new(),
                span_us: 0,
                microbatches: 0,
                bubble_fraction: 0.0,
            };
        }
        let span_us = fold.end_us - fold.start_us;
        let stages: Vec<StageTimeline> = fold
            .stages
            .iter()
            .zip(0..)
            .map(|(st, stage)| {
                let (fwd_us, bkwd_us, recomp_us) =
                    (total_us(&st.fwd), total_us(&st.bkwd), total_us(&st.recomp));
                let (wait_fwd_us, wait_bkwd_us) = (total_us(&st.wait_fwd), total_us(&st.wait_bkwd));
                let utilization = if span_us == 0 {
                    0.0
                } else {
                    (fwd_us + bkwd_us + recomp_us) as f64 / span_us as f64
                };
                StageTimeline {
                    stage,
                    fwd_us,
                    bkwd_us,
                    recomp_us,
                    wait_us: wait_fwd_us + wait_bkwd_us,
                    wait_fwd_us,
                    wait_bkwd_us,
                    utilization,
                    measured_delay_slots: mean(&st.tau_fwd(|_| true)).unwrap_or(0.0),
                    measured_recomp_delay_slots: mean(&st.tau_recomp(|_| true)).unwrap_or(0.0),
                }
            })
            .collect();

        let microbatches = fold.stages[0].bkwd.len();
        let mean_util = stages.iter().map(|st| st.utilization).sum::<f64>() / stages.len() as f64;
        PipelineTimelineSummary { stages, span_us, microbatches, bubble_fraction: 1.0 - mean_util }
    }

    /// JSON rendering (used by experiment logs and the trace example).
    pub fn to_json(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|st| {
                Value::obj()
                    .set("stage", st.stage as u64)
                    .set("fwd_us", st.fwd_us)
                    .set("bkwd_us", st.bkwd_us)
                    .set("recomp_us", st.recomp_us)
                    .set("wait_us", st.wait_us)
                    .set("wait_fwd_us", st.wait_fwd_us)
                    .set("wait_bkwd_us", st.wait_bkwd_us)
                    .set("utilization", st.utilization)
                    .set("measured_delay_slots", st.measured_delay_slots)
                    .set("measured_recomp_delay_slots", st.measured_recomp_delay_slots)
            })
            .collect();
        Value::obj()
            .set("span_us", self.span_us)
            .set("microbatches", self.microbatches)
            .set("bubble_fraction", self.bubble_fraction)
            .set("stages", Value::Arr(stages))
    }
}

/// One stage's events, bucketed by kind in trace order.
#[derive(Default)]
pub(crate) struct StageSpans<'a> {
    pub(crate) fwd: Vec<&'a TraceEvent>,
    pub(crate) bkwd: Vec<&'a TraceEvent>,
    pub(crate) recomp: Vec<&'a TraceEvent>,
    pub(crate) wait_fwd: Vec<&'a TraceEvent>,
    pub(crate) wait_bkwd: Vec<&'a TraceEvent>,
    /// Every other event of the stage (injects, flushes, steps): each
    /// counts as an event and nothing else.
    pub(crate) other: Vec<&'a TraceEvent>,
}

impl StageSpans<'_> {
    /// Number of events of every kind.
    pub(crate) fn events(&self) -> usize {
        [&self.fwd, &self.bkwd, &self.recomp, &self.wait_fwd, &self.wait_bkwd, &self.other]
            .iter()
            .map(|spans| spans.len())
            .sum()
    }

    /// Forward, backward and replay µs clipped to `[t0, t1)`, so a span
    /// straddling the window counts only its overlap.
    pub(crate) fn busy_us(&self, t0: u64, t1: u64) -> u64 {
        self.fwd
            .iter()
            .chain(&self.bkwd)
            .chain(&self.recomp)
            .map(|e| (e.ts_us + e.dur_us).min(t1).saturating_sub(e.ts_us.max(t0)))
            .sum()
    }

    /// τ_fwd samples in slots for the forwards `keep` selects, each
    /// counted against every backward of this stage — the executable
    /// analogue of Table 1's `2(P−i)+1` slot delay.
    pub(crate) fn tau_fwd(&self, keep: impl Fn(&TraceEvent) -> bool) -> Vec<f64> {
        delay_slot_samples(&starts(&self.fwd, keep), &starts(&self.bkwd, |_| true), 1)
    }

    /// τ_recomp samples in slots for the replays `keep` selects — the
    /// executable analogue of App. D's `2(S − s mod S)` recompute delay.
    pub(crate) fn tau_recomp(&self, keep: impl Fn(&TraceEvent) -> bool) -> Vec<f64> {
        delay_slot_samples(&starts(&self.recomp, keep), &starts(&self.bkwd, |_| true), 0)
    }
}

/// A trace grouped by stage: the one place a trace is split into
/// per-stage compute, waits and τ. The summary, `pm trace drift` and the
/// live store all read it; each chooses only which spans it counts.
pub(crate) struct StageFold<'a> {
    /// Per-stage events, indexed by stage.
    pub(crate) stages: Vec<StageSpans<'a>>,
    /// First start over every event, µs (0 for an empty trace).
    pub(crate) start_us: u64,
    /// Last end over every event, µs (0 for an empty trace).
    pub(crate) end_us: u64,
}

impl<'a> StageFold<'a> {
    /// Groups the events `keep` selects into at least `min_stages`
    /// stages, or as many as any `Forward`/`Backward` event names; events
    /// of a stage past that count are left out. The stage count and the
    /// span cover every event, kept or not.
    pub(crate) fn new(
        events: &'a [TraceEvent],
        min_stages: usize,
        keep: impl Fn(&TraceEvent) -> bool,
    ) -> Self {
        let (mut n_stages, mut start_us, mut end_us) = (min_stages, u64::MAX, 0);
        for e in events {
            if matches!(e.kind, SpanKind::Forward | SpanKind::Backward) {
                n_stages = n_stages.max(e.stage as usize + 1);
            }
            start_us = start_us.min(e.ts_us);
            end_us = end_us.max(e.ts_us + e.dur_us);
        }
        let mut stages: Vec<StageSpans<'a>> =
            (0..n_stages).map(|_| StageSpans::default()).collect();
        for e in events.iter().filter(|e| keep(e)) {
            let Some(st) = stages.get_mut(e.stage as usize) else { continue };
            let bucket = match e.kind {
                SpanKind::Forward => &mut st.fwd,
                SpanKind::Backward => &mut st.bkwd,
                SpanKind::Recompute => &mut st.recomp,
                SpanKind::QueueWaitFwd => &mut st.wait_fwd,
                SpanKind::QueueWaitBkwd => &mut st.wait_bkwd,
                _ => &mut st.other,
            };
            bucket.push(e);
        }
        StageFold { stages, start_us: if events.is_empty() { 0 } else { start_us }, end_us }
    }
}

/// Total µs of `spans`.
pub(crate) fn total_us(spans: &[&TraceEvent]) -> u64 {
    spans.iter().map(|e| e.dur_us).sum()
}

/// The mean of `samples`, `None` when there are none.
pub(crate) fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// `(microbatch, start)` of the spans `keep` selects, packed so the
/// quadratic τ count below runs over contiguous pairs.
fn starts(spans: &[&TraceEvent], keep: impl Fn(&TraceEvent) -> bool) -> Vec<(u32, u64)> {
    spans.iter().filter(|e| keep(e)).map(|e| (e.microbatch, e.ts_us)).collect()
}

/// Per-microbatch delay samples in slots: for each microbatch with both a
/// start in `starts` and a backward start, the number of *other* backward
/// starts at this stage in `[start(m), bkwd_start(m))`, plus `own_update`
/// (1 for forward delays — a microbatch's staleness includes its own
/// update — 0 for replay delays, which read weights this stage's last
/// backward already wrote). The one definition of measured τ.
fn delay_slot_samples(
    starts: &[(u32, u64)],
    bkwd_starts: &[(u32, u64)],
    own_update: usize,
) -> Vec<f64> {
    let mut samples = Vec::new();
    for &(mb, start_ts) in starts {
        let Some(&(_, bkwd_ts)) = bkwd_starts.iter().find(|(b, _)| *b == mb) else {
            continue;
        };
        let between = bkwd_starts
            .iter()
            .filter(|&&(b, ts)| b != mb && ts >= start_ts && ts < bkwd_ts)
            .count();
        samples.push((between + own_update) as f64);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_MICROBATCH;

    fn span(kind: SpanKind, stage: u32, mb: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent { kind, track: stage, stage, microbatch: mb, ts_us: ts, dur_us: dur, trace: 0 }
    }

    #[test]
    fn empty_trace_is_empty_summary() {
        let s = PipelineTimelineSummary::from_events(&[]);
        assert!(s.stages.is_empty());
        assert_eq!(s.microbatches, 0);
    }

    #[test]
    fn utilization_and_bubble_fraction() {
        // One stage busy 60 of 100 us.
        let events =
            vec![span(SpanKind::Forward, 0, 0, 0, 20), span(SpanKind::Backward, 0, 0, 60, 40)];
        let s = PipelineTimelineSummary::from_events(&events);
        assert_eq!(s.span_us, 100);
        assert_eq!(s.stages.len(), 1);
        assert!((s.stages[0].utilization - 0.6).abs() < 1e-12);
        assert!((s.bubble_fraction - 0.4).abs() < 1e-12);
        assert_eq!(s.microbatches, 1);
    }

    #[test]
    fn wait_time_is_tracked_separately() {
        let events = vec![
            span(SpanKind::QueueWaitFwd, 0, NO_MICROBATCH, 0, 30),
            span(SpanKind::Forward, 0, 0, 30, 10),
            span(SpanKind::QueueWaitBkwd, 0, NO_MICROBATCH, 40, 20),
            span(SpanKind::Backward, 0, 0, 60, 20),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        assert_eq!(s.stages[0].wait_us, 50);
        assert_eq!(s.stages[0].wait_fwd_us, 30);
        assert_eq!(s.stages[0].wait_bkwd_us, 20);
        assert_eq!(s.stages[0].fwd_us, 10);
        assert_eq!(s.stages[0].bkwd_us, 20);
    }

    #[test]
    fn measured_delay_counts_interleaved_backwards() {
        // Stage 0 of a 2-stage-like trace: fwd(0), fwd(1), bkwd(0),
        // bkwd(1), bkwd(2) with fwd(2) after two backwards.
        let events = vec![
            span(SpanKind::Forward, 0, 0, 0, 5),
            span(SpanKind::Forward, 0, 1, 10, 5),
            span(SpanKind::Backward, 0, 0, 20, 5),
            span(SpanKind::Backward, 0, 1, 30, 5),
            span(SpanKind::Forward, 0, 2, 40, 5),
            span(SpanKind::Backward, 0, 2, 50, 5),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        // mb0: one other backward in [0, 20)? none → 1 slot (own update).
        // mb1: bkwd(0) at 20 ∈ [10, 30) → 2 slots.
        // mb2: none between 40 and 50 → 1 slot.
        assert!((s.stages[0].measured_delay_slots - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recompute_spans_are_aggregated_and_measured() {
        // Stage 0: replay of mb2 starts at 35; backwards of mb0 (40) and
        // mb1 (50) land before mb2's backward at 60 → 2 measured slots.
        let events = vec![
            span(SpanKind::Forward, 0, 0, 0, 5),
            span(SpanKind::Forward, 0, 1, 10, 5),
            span(SpanKind::Forward, 0, 2, 20, 5),
            span(SpanKind::Recompute, 0, 2, 35, 5),
            span(SpanKind::Backward, 0, 0, 40, 5),
            span(SpanKind::Backward, 0, 1, 50, 5),
            span(SpanKind::Backward, 0, 2, 60, 5),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        assert_eq!(s.stages[0].recomp_us, 5);
        assert!((s.stages[0].measured_recomp_delay_slots - 2.0).abs() < 1e-12);
        // Replay time counts as compute, not bubble.
        assert_eq!(s.stages[0].fwd_us + s.stages[0].bkwd_us + s.stages[0].recomp_us, 35);
        let j = s.to_json();
        let row = &j.get("stages").unwrap().as_arr().unwrap()[0];
        assert!(row.get("recomp_us").is_some());
        assert!(row.get("measured_recomp_delay_slots").is_some());
    }

    #[test]
    fn to_json_has_stage_rows() {
        let events = vec![
            span(SpanKind::Forward, 0, 0, 0, 10),
            span(SpanKind::Backward, 0, 0, 10, 10),
            span(SpanKind::Forward, 1, 0, 5, 10),
            span(SpanKind::Backward, 1, 0, 15, 10),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        let j = s.to_json();
        assert_eq!(j.get("stages").unwrap().as_arr().unwrap().len(), 2);
        let text = j.to_pretty();
        assert!(crate::json::parse(&text).is_ok());
    }
}
