//! Trace events and recorders.
//!
//! A [`Recorder`] is the write side of the tracing subsystem: execution
//! code (the threaded pipeline executor, trainers) is generic over it so
//! that the disabled path monomorphizes to nothing. There are two tiers.
//! [`NullRecorder`] reports `enabled() == false` and every call is an
//! inlineable no-op — no clock reads, no allocation, no locks.
//! [`crate::FlightRecorder`] keeps events in bounded lock-free per-track
//! rings, cheap enough to leave on for the life of a run and drained
//! exactly by its `take`. [`EventSource`] is the matching read side —
//! either tier can hand back a snapshot of what it holds.

/// What a span (or instant event) represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Forward compute of one microbatch at one stage.
    Forward,
    /// Backward compute of one microbatch at one stage.
    Backward,
    /// Replay forward of one microbatch at one stage (PipeMare Recompute
    /// recovering a discarded activation just before its backward).
    Recompute,
    /// Time a stage spent blocked waiting for forward input.
    QueueWaitFwd,
    /// Time a stage spent blocked waiting for backward input.
    QueueWaitBkwd,
    /// Instant: the driver injected a microbatch into the pipeline.
    Inject,
    /// The driver blocked draining a minibatch (GPipe's bubble).
    Flush,
    /// One optimizer step of a trainer.
    Step,
    /// A serving batcher's coalescing window: from popping the first
    /// queued request to dispatching the assembled batch.
    Coalesce,
    /// Instant: an alert rule transitioned to firing (the `microbatch`
    /// field carries the rule index within its engine).
    AlertFiring,
    /// Instant: a firing alert rule resolved.
    AlertResolved,
}

impl SpanKind {
    /// Every kind, in declaration order: `kind as usize` indexes it.
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Forward,
        SpanKind::Backward,
        SpanKind::Recompute,
        SpanKind::QueueWaitFwd,
        SpanKind::QueueWaitBkwd,
        SpanKind::Inject,
        SpanKind::Flush,
        SpanKind::Step,
        SpanKind::Coalesce,
        SpanKind::AlertFiring,
        SpanKind::AlertResolved,
    ];

    /// Short display name (used as the Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::Recompute => "recompute",
            SpanKind::QueueWaitFwd => "wait_fwd",
            SpanKind::QueueWaitBkwd => "wait_bkwd",
            SpanKind::Inject => "inject",
            SpanKind::Flush => "flush",
            SpanKind::Step => "step",
            SpanKind::Coalesce => "coalesce",
            SpanKind::AlertFiring => "alert_firing",
            SpanKind::AlertResolved => "alert_resolved",
        }
    }

    /// Inverse of [`SpanKind::name`], for trace readers.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether events of this kind are instants (zero duration) rather
    /// than spans.
    pub fn is_instant(&self) -> bool {
        matches!(self, SpanKind::Inject | SpanKind::AlertFiring | SpanKind::AlertResolved)
    }
}

/// Sentinel for [`TraceEvent::microbatch`] when no microbatch applies.
pub const NO_MICROBATCH: u32 = u32::MAX;

/// Sentinel for [`TraceEvent::trace`] when no causal trace id applies.
/// Real trace ids are nonzero, so `0` doubles as "absent" on the wire
/// and in JSONL (the field is simply omitted).
pub const NO_TRACE: u64 = 0;

/// One recorded span or instant. `Copy` so the hot path never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Span kind.
    pub kind: SpanKind,
    /// Track (rendered as a thread in trace viewers): stage index for
    /// stage threads, `stages` for the driver.
    pub track: u32,
    /// Pipeline stage the event belongs to (== `track` for stage events).
    pub stage: u32,
    /// Microbatch id, or [`NO_MICROBATCH`].
    pub microbatch: u32,
    /// Start timestamp in microseconds since the recorder's origin.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Causal trace id stamped on this event, or [`NO_TRACE`]. Unlike
    /// `microbatch` (a per-run index that collides across processes and
    /// restarts), a trace id survives the wire: the same id stamped on a
    /// request's spans in every process lets `pm trace path <id>`
    /// reconstruct its cross-process critical path from a merged trace.
    pub trace: u64,
}

/// The write side of the tracing subsystem.
///
/// Implementations must be cheap when disabled: callers are expected to
/// guard clock reads with [`Recorder::enabled`], so a disabled recorder
/// costs one inlined constant branch per potential span.
pub trait Recorder: Sync {
    /// Whether events are actually collected. Callers should skip
    /// timestamping work when this is `false`.
    fn enabled(&self) -> bool;

    /// Microseconds since this recorder's time origin.
    fn now_us(&self) -> u64;

    /// Records one event.
    fn record(&self, ev: TraceEvent);

    /// Convenience: records a completed span from its measured endpoints.
    fn record_span(&self, kind: SpanKind, track: u32, stage: u32, mb: u32, t0: u64, t1: u64) {
        self.record_span_traced(kind, track, stage, mb, NO_TRACE, t0, t1);
    }

    /// Convenience: records a completed span stamped with a causal
    /// trace id (see [`TraceEvent::trace`]).
    #[allow(clippy::too_many_arguments)]
    fn record_span_traced(
        &self,
        kind: SpanKind,
        track: u32,
        stage: u32,
        mb: u32,
        trace: u64,
        t0: u64,
        t1: u64,
    ) {
        self.record(TraceEvent {
            kind,
            track,
            stage,
            microbatch: mb,
            ts_us: t0,
            dur_us: t1.saturating_sub(t0),
            trace,
        });
    }

    /// Convenience: records an instant event at the current time.
    fn record_instant(&self, kind: SpanKind, track: u32, stage: u32, mb: u32) {
        let now = self.now_us();
        self.record(TraceEvent {
            kind,
            track,
            stage,
            microbatch: mb,
            ts_us: now,
            dur_us: 0,
            trace: NO_TRACE,
        });
    }
}

/// The read side of an enabled recorder: a point-in-time copy of the
/// events it currently holds, sorted by `(ts_us, track)`.
///
/// Implemented by both recorder tiers so analysis entry points (trace
/// summaries, black-box dumps, live stats, alert logs) compose
/// with whichever tier the run pays for: [`crate::FlightRecorder`]
/// returns the retained ring contents, [`NullRecorder`] nothing.
pub trait EventSource {
    /// Copies out the currently held events, sorted by `(ts_us, track)`.
    fn snapshot_events(&self) -> Vec<TraceEvent>;
}

impl<S: EventSource + ?Sized> EventSource for &S {
    fn snapshot_events(&self) -> Vec<TraceEvent> {
        (**self).snapshot_events()
    }
}

/// A recorder that drops everything; the disabled hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl EventSource for NullRecorder {
    fn snapshot_events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn now_us(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn record(&self, _ev: TraceEvent) {}
}

impl<R: Recorder + ?Sized> Recorder for &R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn now_us(&self) -> u64 {
        (**self).now_us()
    }

    fn record(&self, ev: TraceEvent) {
        (**self).record(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.record_instant(SpanKind::Inject, 0, 0, 0);
        r.record_span(SpanKind::Forward, 0, 0, 0, 0, 10);
        assert_eq!(r.now_us(), 0);
    }
}
