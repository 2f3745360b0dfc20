//! Trace events and recorders.
//!
//! A [`Recorder`] is the write side of the tracing subsystem: execution
//! code (the threaded pipeline executor, trainers) is generic over it so
//! that the disabled path monomorphizes to nothing. [`NullRecorder`]
//! reports `enabled() == false` and every call is an inlineable no-op —
//! no clock reads, no allocation, no locks. [`TraceRecorder`] collects
//! [`TraceEvent`]s into per-track sharded buffers: each pipeline stage
//! (track) appends to its own buffer behind its own mutex, so stages
//! never contend with each other on the hot path; a push is a lock of an
//! uncontended mutex plus an amortized `Vec` append of a `Copy` struct.
//! The third tier, [`crate::FlightRecorder`], trades completeness for a
//! bound: fixed-capacity lock-free rings cheap enough to leave on for
//! the life of a run. [`EventSource`] is the matching read side — any
//! enabled recorder tier can hand back a snapshot of what it holds.

use std::sync::Mutex;
use std::time::Instant;

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
        Some(match name {
            "forward" => SpanKind::Forward,
            "backward" => SpanKind::Backward,
            "recompute" => SpanKind::Recompute,
            "wait_fwd" => SpanKind::QueueWaitFwd,
            "wait_bkwd" => SpanKind::QueueWaitBkwd,
            "inject" => SpanKind::Inject,
            "flush" => SpanKind::Flush,
            "step" => SpanKind::Step,
            "coalesce" => SpanKind::Coalesce,
            "alert_firing" => SpanKind::AlertFiring,
            "alert_resolved" => SpanKind::AlertResolved,
            _ => return None,
        })
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
/// Implemented by every recorder tier so analysis entry points (the
/// health monitor's `ingest_events`, black-box dumps)
/// compose with whichever tier the run pays for: [`TraceRecorder`]
/// returns everything, [`crate::FlightRecorder`] the retained ring
/// contents, [`NullRecorder`] nothing.
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

/// Default number of independent buffers in a [`TraceRecorder`]; tracks
/// map onto shards by modulo, so pipelines up to this deep are
/// contention-free.
const SHARDS: usize = 32;

/// An enabled recorder collecting events into per-track shards.
///
/// **Track/shard invariant**: a track owns shard `track % n_shards`.
/// [`TraceRecorder::new`] allocates [`SHARDS`] (32) shards, so tracks
/// `0..32` are contention-free; deeper pipelines alias — tracks 32 and 0
/// share a shard, which is *correct* (events carry their own `track`
/// field and [`TraceRecorder::events`] sorts globally) but makes the
/// aliased tracks contend on one mutex. Use
/// [`TraceRecorder::with_tracks`] when the track count is known up front
/// so every track gets its own shard.
pub struct TraceRecorder {
    origin: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Creates a recorder whose time origin is "now", with the default
    /// [`SHARDS`] shard count.
    pub fn new() -> Self {
        Self::with_tracks(SHARDS)
    }

    /// Creates a recorder with at least `n_tracks` shards (never fewer
    /// than the default [`SHARDS`]), so a pipeline `n_tracks` deep
    /// records contention-free — no two of its tracks alias one shard.
    pub fn with_tracks(n_tracks: usize) -> Self {
        TraceRecorder {
            origin: Instant::now(),
            shards: (0..n_tracks.max(SHARDS)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Total events recorded so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no events have been recorded (lets callers skip exporting
    /// or summarizing empty traces).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().unwrap().is_empty())
    }

    /// All events recorded so far, sorted by start timestamp.
    ///
    /// Copies every shard into one pre-sized allocation (no intermediate
    /// per-shard clones) and sorts once.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all = Vec::with_capacity(self.len());
        for s in &self.shards {
            all.extend_from_slice(&s.lock().unwrap());
        }
        all.sort_by_key(|e| (e.ts_us, e.track));
        all
    }

    /// Drops all recorded events (e.g. to discard a warmup phase).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
    }
}

impl EventSource for TraceRecorder {
    fn snapshot_events(&self) -> Vec<TraceEvent> {
        self.events()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn record(&self, ev: TraceEvent) {
        // Tracks beyond the shard count alias (see the type docs); the
        // event's own `track` field keeps attribution exact regardless.
        self.shards[ev.track as usize % self.shards.len()].lock().unwrap().push(ev);
    }
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

    #[test]
    fn trace_recorder_collects_sorted_events() {
        let r = TraceRecorder::new();
        r.record(TraceEvent {
            kind: SpanKind::Backward,
            track: 1,
            stage: 1,
            microbatch: 0,
            ts_us: 50,
            dur_us: 10,
            trace: NO_TRACE,
        });
        r.record(TraceEvent {
            kind: SpanKind::Forward,
            track: 0,
            stage: 0,
            microbatch: 0,
            ts_us: 5,
            dur_us: 10,
            trace: NO_TRACE,
        });
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, SpanKind::Forward);
        assert!(evs[0].ts_us <= evs[1].ts_us);
        r.clear();
        assert!(r.events().is_empty());
    }

    #[test]
    fn len_and_is_empty_track_recorded_events() {
        let r = TraceRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        r.record_instant(SpanKind::Inject, 3, 0, 0);
        r.record_instant(SpanKind::Inject, 40, 0, 1); // aliases shard 8
        assert!(!r.is_empty());
        assert_eq!(r.len(), 2);
        assert_eq!(r.snapshot_events().len(), 2);
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn deep_pipelines_get_dedicated_shards_and_aliasing_stays_correct() {
        // with_tracks(64): tracks 0..64 each own a shard.
        let wide = TraceRecorder::with_tracks(64);
        for track in 0..64u32 {
            wide.record(TraceEvent {
                kind: SpanKind::Forward,
                track,
                stage: track,
                microbatch: 0,
                ts_us: track as u64,
                dur_us: 1,
                trace: NO_TRACE,
            });
        }
        assert_eq!(wide.len(), 64);
        // Default recorder: tracks 0 and 32 alias one shard, but events()
        // still attributes and orders both exactly.
        let narrow = TraceRecorder::new();
        narrow.record(TraceEvent {
            kind: SpanKind::Forward,
            track: 32,
            stage: 32,
            microbatch: 0,
            ts_us: 10,
            dur_us: 1,
            trace: NO_TRACE,
        });
        narrow.record(TraceEvent {
            kind: SpanKind::Forward,
            track: 0,
            stage: 0,
            microbatch: 0,
            ts_us: 5,
            dur_us: 1,
            trace: NO_TRACE,
        });
        let evs = narrow.events();
        assert_eq!(evs.iter().map(|e| e.track).collect::<Vec<_>>(), vec![0, 32]);
    }

    #[test]
    fn recorder_clock_is_monotone() {
        let r = TraceRecorder::new();
        let a = r.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = r.now_us();
        assert!(b > a);
    }

    #[test]
    fn concurrent_records_from_many_threads_all_arrive() {
        let r = TraceRecorder::new();
        std::thread::scope(|scope| {
            for track in 0..8u32 {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..500 {
                        let t0 = r.now_us();
                        r.record_span(SpanKind::Forward, track, track, i, t0, t0 + 1);
                    }
                });
            }
        });
        let evs = r.events();
        assert_eq!(evs.len(), 8 * 500);
        // Per-track timestamps must be non-decreasing (each track records
        // its own monotone clock reads).
        for track in 0..8u32 {
            let ts: Vec<u64> = evs.iter().filter(|e| e.track == track).map(|e| e.ts_us).collect();
            assert_eq!(ts.len(), 500);
            assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
