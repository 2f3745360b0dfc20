//! The recorder: bounded lock-free ring buffers, one per track.
//!
//! [`FlightRecorder`] is the enabled tier next to [`crate::NullRecorder`]:
//! per-track bounded rings of [`TraceEvent`]s with fixed capacity,
//! overwrite-oldest semantics, and an atomic write cursor per track — no
//! locks on the hot path, so it is cheap enough to stay on for the life of
//! a training job. A track's ring is allocated when the track records its
//! first event, so ring memory is paid only by tracks that record: a
//! recorder sized from a peer's stage count costs 16 bytes per track
//! until the track writes.
//!
//! It has three reads. [`FlightRecorder::snapshot`] and
//! [`FlightRecorder::recent`] copy what the rings retain — the lossy live
//! view a stats sample or a black-box dump wants (see
//! `pipemare_core::HealthHook`). [`FlightRecorder::events`] is the whole
//! trace of an instrumented run, and refuses one a ring overwrote.
//! [`FlightRecorder::take`] ships every event since the previous `take`,
//! exactly once, through a per-track shipped cursor; a ring that lapped
//! events before they were taken makes it fail with [`Lapped`] and the
//! exact count lost, instead of growing.
//!
//! ## Write protocol
//!
//! Each track owns a ring of slots; each slot is a per-slot seqlock: a
//! `seq` word plus five packed payload words. A writer claims a slot
//! index with one `fetch_add` on the track cursor, marks the slot's
//! `seq` odd (write in progress), stores the payload, and publishes
//! `seq = (index + 1) << 1` with `Release`. Readers validate `seq`
//! before and after copying the payload and skip torn slots, so a
//! snapshot taken concurrently with writers never yields a half-written
//! event; a snapshot taken while writers are quiescent (threads joined)
//! is exact. A `take` stops at the first slot still being written and
//! ships it next time.
//!
//! ## Accounting is exact
//!
//! - `overwritten()` — events lost to ring wraparound — is derived from
//!   the cursors (`cursor − capacity` per track), not sampled.
//! - `dropped()` — events whose `track` is beyond the configured track
//!   count — is an exact counter. Out-of-range tracks are *never*
//!   aliased into another track's ring.
//!
//! ## Sizing guidance
//!
//! One slot is 48 bytes (six `u64` words). The threaded executor emits
//! ≈ 4 events per microbatch per stage (forward, backward, two queue
//! waits), so a ring of `capacity` slots holds the last
//! `capacity / 4` microbatches of history per stage. The default
//! (`DEFAULT_CAPACITY` = 4096 slots ≈ 192 KiB/track) covers ~1000
//! microbatches per stage; size up with [`FlightRecorder::new`] if your
//! anomaly-to-dump window spans more, and size a drained recorder for the
//! events one track records between two takes.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::{EventSource, Recorder, SpanKind, TraceEvent};

/// Default per-track ring capacity in events.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One ring slot: a seqlock word plus the packed event payload.
#[derive(Default)]
struct Slot {
    /// 0 = never written; odd = write in progress; even nonzero =
    /// `(write_index + 1) << 1` of the published event.
    seq: AtomicU64,
    /// `kind | track << 32`.
    w0: AtomicU64,
    /// `stage | microbatch << 32`.
    w1: AtomicU64,
    /// `ts_us`.
    w2: AtomicU64,
    /// `dur_us`.
    w3: AtomicU64,
    /// `trace` (causal trace id; [`crate::NO_TRACE`] when absent).
    w4: AtomicU64,
}

struct TrackRing {
    /// Total events ever written to this track (monotone).
    cursor: AtomicU64,
    /// Events before this index have been shipped by a `take` or lost;
    /// written only under the recorder's taker lock.
    shipped: AtomicU64,
    slots: Box<[Slot]>,
}

impl TrackRing {
    fn new(capacity: usize) -> Self {
        TrackRing {
            cursor: AtomicU64::new(0),
            shipped: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    /// The event written at `idx`, or `None` while its write is in
    /// progress, not yet begun, or already lapped by a newer one.
    fn read(&self, idx: u64) -> Option<TraceEvent> {
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        let seq1 = slot.seq.load(Ordering::Acquire);
        if seq1 != (idx + 1) << 1 {
            return None;
        }
        let w0 = slot.w0.load(Ordering::Relaxed);
        let w1 = slot.w1.load(Ordering::Relaxed);
        let w2 = slot.w2.load(Ordering::Relaxed);
        let w3 = slot.w3.load(Ordering::Relaxed);
        let w4 = slot.w4.load(Ordering::Relaxed);
        // Order the payload loads before the validation re-read.
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq1 {
            return None;
        }
        Some(TraceEvent {
            kind: SpanKind::ALL[(w0 & 0xffff_ffff) as usize],
            track: (w0 >> 32) as u32,
            stage: (w1 & 0xffff_ffff) as u32,
            microbatch: (w1 >> 32) as u32,
            ts_us: w2,
            dur_us: w3,
            trace: w4,
        })
    }
}

/// What [`FlightRecorder::take`] returns when its rings overwrote events
/// before any take shipped them: the run recorded more between two takes
/// than a ring holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lapped {
    /// Events no take will ship, over every track.
    pub lost: u64,
}

impl fmt::Display for Lapped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flight recorder rings overwrote {} events before they were taken", self.lost)
    }
}

impl std::error::Error for Lapped {}

/// A bounded, lock-free recorder: per-track rings with overwrite-oldest
/// semantics, each allocated when its track first records (see the module
/// docs for the protocol and sizing guidance).
pub struct FlightRecorder {
    origin: Instant,
    capacity: usize,
    tracks: Box<[OnceLock<Box<TrackRing>>]>,
    /// The tracks whose ring is allocated: reads visit only these.
    recording: Mutex<Vec<usize>>,
    /// Events recorded with `track >= n_tracks` (counted, not stored).
    dropped: AtomicU64,
    /// Serialises takes, which move the shipped cursors.
    taker: Mutex<()>,
}

impl FlightRecorder {
    /// Creates a recorder with `n_tracks` tracks whose rings hold
    /// `capacity` events each once allocated; the time origin is "now".
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n_tracks: usize, capacity: usize) -> Self {
        assert!(n_tracks > 0, "flight recorder needs at least one track");
        assert!(capacity > 0, "flight recorder rings need nonzero capacity");
        FlightRecorder {
            origin: Instant::now(),
            capacity,
            tracks: (0..n_tracks).map(|_| OnceLock::new()).collect(),
            recording: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            taker: Mutex::new(()),
        }
    }

    /// A recorder sized for a `stages`-deep threaded pipeline: one track
    /// per stage plus one for the driver/trainer, [`DEFAULT_CAPACITY`]
    /// events each.
    pub fn for_pipeline(stages: usize) -> Self {
        Self::new(stages + 1, DEFAULT_CAPACITY)
    }

    /// Number of tracks.
    pub fn n_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Per-track ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The rings of the tracks that have recorded.
    fn rings(&self) -> impl Iterator<Item = &TrackRing> {
        let recording = self.recording.lock().expect("a ring allocation panicked").clone();
        recording.into_iter().filter_map(|t| self.tracks[t].get().map(|ring| &**ring))
    }

    /// Total events ever recorded into rings (including ones since
    /// overwritten; excludes dropped ones).
    pub fn recorded(&self) -> u64 {
        self.rings().map(|t| t.cursor.load(Ordering::Relaxed)).sum()
    }

    /// Events currently retained across all rings.
    pub fn len(&self) -> usize {
        self.rings().map(|t| (t.cursor.load(Ordering::Relaxed) as usize).min(self.capacity)).sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact count of events lost to ring wraparound.
    pub fn overwritten(&self) -> u64 {
        let cap = self.capacity as u64;
        self.rings().map(|t| t.cursor.load(Ordering::Relaxed).saturating_sub(cap)).sum()
    }

    /// The most events one track has recorded since the previous
    /// [`FlightRecorder::take`]: a `take` fails once this exceeds
    /// [`FlightRecorder::capacity`], so a writer that drains its own
    /// recorder can take before then.
    pub fn untaken(&self) -> u64 {
        let pending = |t: &TrackRing| {
            t.cursor.load(Ordering::Relaxed).saturating_sub(t.shipped.load(Ordering::Relaxed))
        };
        self.rings().map(pending).max().unwrap_or(0)
    }

    /// Exact count of events recorded with a track index beyond
    /// [`FlightRecorder::n_tracks`] (counted but never stored — tracks
    /// are *not* aliased modulo the ring count).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the retained ring contents, sorted by `(ts_us, track)`.
    ///
    /// Safe to call while writers are active: slots mid-write (or lapped
    /// during the copy) are skipped, never torn. Quiescent snapshots —
    /// writer threads joined first — are exact.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        for ring in self.rings() {
            let cursor = ring.cursor.load(Ordering::Acquire);
            // Oldest retained index first.
            let first = cursor.saturating_sub(self.capacity as u64);
            out.extend((first..cursor).filter_map(|idx| ring.read(idx)));
        }
        out.sort_by_key(|e| (e.ts_us, e.track));
        out
    }

    /// Every event recorded, sorted by `(ts_us, track)`: the whole trace
    /// of an instrumented run, read once its writers have finished.
    ///
    /// # Panics
    ///
    /// Panics if a ring has overwritten events: size the recorder for the
    /// run.
    pub fn events(&self) -> Vec<TraceEvent> {
        let lost = self.overwritten();
        assert_eq!(lost, 0, "flight recorder rings overwrote {lost} events: size them for the run");
        self.snapshot()
    }

    /// The retained events whose end lies within the trailing
    /// `window_us` microseconds — the "last K seconds" slice a black-box
    /// dump wants.
    pub fn recent(&self, window_us: u64) -> Vec<TraceEvent> {
        let cutoff = self.now_us().saturating_sub(window_us);
        let mut out = self.snapshot();
        out.retain(|e| e.ts_us + e.dur_us >= cutoff);
        out
    }

    /// Ships every event recorded since the previous `take`, sorted by
    /// `(ts_us, track)`. Safe to call while writers are active: a track's
    /// batch ends at its first slot still being written, which the next
    /// `take` ships. Snapshots are unaffected.
    ///
    /// # Errors
    ///
    /// [`Lapped`] if a ring overwrote events before they were taken. Then
    /// nothing is shipped: each lapped track moves past its lost events
    /// and every other event stays for the next `take`.
    pub fn take(&self) -> Result<Vec<TraceEvent>, Lapped> {
        let _one_taker = self.taker.lock().expect("a take panicked");
        let cap = self.capacity as u64;
        let mut out = Vec::new();
        let mut ends = Vec::new();
        let mut lost = 0;
        for ring in self.rings() {
            let cursor = ring.cursor.load(Ordering::Acquire);
            let shipped = ring.shipped.load(Ordering::Relaxed);
            // Indices below `cursor − cap` have had their slot claimed by
            // a newer write.
            let resume = shipped.max(cursor.saturating_sub(cap));
            let mut end = resume;
            while end < cursor {
                let Some(ev) = ring.read(end) else { break };
                out.push(ev);
                end += 1;
            }
            lost += resume - shipped;
            ends.push((ring, resume, end));
        }
        for (ring, resume, end) in ends {
            ring.shipped.store(if lost > 0 { resume } else { end }, Ordering::Relaxed);
        }
        if lost > 0 {
            return Err(Lapped { lost });
        }
        out.sort_by_key(|e| (e.ts_us, e.track));
        Ok(out)
    }
}

impl Recorder for FlightRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn record(&self, ev: TraceEvent) {
        let Some(track) = self.tracks.get(ev.track as usize) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let ring = track.get_or_init(|| {
            self.recording.lock().expect("a ring allocation panicked").push(ev.track as usize);
            Box::new(TrackRing::new(self.capacity))
        });
        let idx = ring.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = &ring.slots[(idx % ring.slots.len() as u64) as usize];
        // Seqlock write: mark busy (odd), store payload, publish (even).
        slot.seq.store(((idx + 1) << 1) | 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.w0.store(ev.kind as u64 | (ev.track as u64) << 32, Ordering::Relaxed);
        slot.w1.store(ev.stage as u64 | (ev.microbatch as u64) << 32, Ordering::Relaxed);
        slot.w2.store(ev.ts_us, Ordering::Relaxed);
        slot.w3.store(ev.dur_us, Ordering::Relaxed);
        slot.w4.store(ev.trace, Ordering::Relaxed);
        slot.seq.store((idx + 1) << 1, Ordering::Release);
    }
}

impl EventSource for FlightRecorder {
    fn snapshot_events(&self) -> Vec<TraceEvent> {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_MICROBATCH;

    fn ev(track: u32, mb: u32, ts: u64) -> TraceEvent {
        TraceEvent {
            kind: SpanKind::Forward,
            track,
            stage: track,
            microbatch: mb,
            ts_us: ts,
            dur_us: 3,
            trace: crate::event::NO_TRACE,
        }
    }

    #[test]
    fn kind_packing_roundtrips() {
        // A slot stores `kind as u64` and reads it back through `ALL`.
        assert_eq!(SpanKind::ALL.len(), SpanKind::AlertResolved as usize + 1);
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::ALL[kind as usize], kind);
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn events_roundtrip_through_the_ring() {
        let rec = FlightRecorder::new(2, 8);
        let original = TraceEvent {
            kind: SpanKind::Backward,
            track: 1,
            stage: 1,
            microbatch: NO_MICROBATCH,
            ts_us: 42,
            dur_us: 7,
            trace: 0xdead_beef_cafe,
        };
        rec.record(original);
        assert_eq!(rec.snapshot(), vec![original]);
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
        assert_eq!(rec.overwritten(), 0);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_overwrites_exactly() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(ev(0, i as u32, i));
        }
        let snap = rec.snapshot();
        // The ring holds the newest 4 of the 10: microbatches 6..=9.
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.iter().map(|e| e.microbatch).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.overwritten(), 6);
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn out_of_range_tracks_are_counted_never_aliased() {
        let rec = FlightRecorder::new(2, 4);
        rec.record(ev(0, 0, 0));
        rec.record(ev(5, 1, 1)); // beyond n_tracks
        rec.record(ev(2, 2, 2)); // beyond n_tracks
        assert_eq!(rec.dropped(), 2);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].track, 0);
    }

    #[test]
    fn recent_filters_by_trailing_window() {
        let rec = FlightRecorder::new(1, 16);
        // ts 0 is far in the recorder's past only if the clock has
        // advanced; synthesize by recording old and "now" timestamps.
        let now = rec.now_us();
        rec.record(ev(0, 0, 0));
        rec.record(ev(0, 1, now));
        let recent = rec.recent(1_000_000);
        assert!(recent.iter().any(|e| e.microbatch == 1));
        // A zero-width window from "now" keeps only events ending at or
        // after the call instant — the old one (ends at 3 µs) is out
        // unless the test ran in under 3 µs; the window below is
        // permissive enough to be deterministic.
        let all = rec.recent(u64::MAX);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn rings_are_allocated_by_the_tracks_that_record() {
        let rec = FlightRecorder::new(1 << 16, DEFAULT_CAPACITY);
        assert_eq!(rec.rings().count(), 0);
        rec.record(ev(3, 0, 0));
        rec.record(ev(3, 1, 1));
        rec.record(ev(65_535, 0, 2));
        assert_eq!(rec.rings().count(), 2);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn take_ships_each_event_once_and_leaves_the_live_view() {
        let rec = FlightRecorder::new(2, 8);
        rec.record(ev(0, 0, 0));
        rec.record(ev(1, 1, 1));
        assert_eq!(rec.take().unwrap(), vec![ev(0, 0, 0), ev(1, 1, 1)]);
        assert_eq!(rec.take(), Ok(vec![]));
        rec.record(ev(0, 2, 2));
        assert_eq!(rec.untaken(), 1);
        assert_eq!(rec.take(), Ok(vec![ev(0, 2, 2)]));
        assert_eq!(rec.untaken(), 0);
        assert_eq!(rec.snapshot().len(), 3, "a take moves only the shipped cursors");
    }

    #[test]
    fn a_lapped_ring_fails_the_take_with_the_exact_count_lost() {
        let rec = FlightRecorder::new(2, 4);
        // Track 0 ships 3 events, then records 6 more into its 4 slots:
        // the newest 4 survive, and the 2 between them and the shipped
        // ones are lost.
        for i in 0..3u64 {
            rec.record(ev(0, i as u32, i));
        }
        assert_eq!(rec.take().map(|b| b.len()), Ok(3));
        for i in 3..9u64 {
            rec.record(ev(0, i as u32, i));
        }
        rec.record(ev(1, 100, 100));
        assert_eq!(rec.untaken(), 6, "the most any one track holds untaken");
        assert_eq!(rec.take(), Err(Lapped { lost: 2 }));
        // Nothing was shipped: the retained four and track 1's event come
        // next, and then the rings are drained.
        let mbs = |b: Vec<TraceEvent>| b.iter().map(|e| e.microbatch).collect::<Vec<_>>();
        assert_eq!(rec.take().map(mbs), Ok(vec![5, 6, 7, 8, 100]));
        assert_eq!(rec.take(), Ok(vec![]));
        // A fresh lap counts only what was never shipped.
        for i in 9..19u64 {
            rec.record(ev(0, i as u32, i));
        }
        assert_eq!(rec.take(), Err(Lapped { lost: 6 }));
        assert_eq!(rec.take().map(mbs), Ok(vec![15, 16, 17, 18]));
        assert_eq!(rec.overwritten(), 19 - 4);
    }

    #[test]
    #[should_panic(expected = "overwrote 6 events")]
    fn events_refuse_an_overwritten_trace() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(ev(0, i as u32, i));
        }
        rec.events();
    }

    #[test]
    fn concurrent_writers_lose_nothing_within_capacity() {
        // 8 tracks × 500 events fit the per-track capacity: the quiescent
        // snapshot must be loss-free and every count exact.
        let rec = FlightRecorder::new(8, 512);
        std::thread::scope(|scope| {
            for track in 0..8u32 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let t0 = rec.now_us();
                        rec.record_span(SpanKind::Forward, track, track, i, t0, t0 + 1);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 8 * 500);
        assert_eq!(rec.recorded(), 8 * 500);
        assert_eq!(rec.overwritten(), 0);
        assert_eq!(rec.dropped(), 0);
        for track in 0..8u32 {
            let mut mbs: Vec<u32> =
                snap.iter().filter(|e| e.track == track).map(|e| e.microbatch).collect();
            mbs.sort_unstable();
            assert_eq!(mbs, (0..500).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_writers_beyond_capacity_count_losses_exactly() {
        // 4 writers × 1000 events into 64-slot rings: each track retains
        // its newest 64, and overwritten() accounts for the rest exactly.
        let rec = FlightRecorder::new(4, 64);
        std::thread::scope(|scope| {
            for track in 0..4u32 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..1000u32 {
                        rec.record(ev(track, i, i as u64));
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 4 * 1000);
        assert_eq!(rec.overwritten(), 4 * (1000 - 64));
        assert_eq!(rec.len(), 4 * 64);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4 * 64);
        for track in 0..4u32 {
            let mut mbs: Vec<u32> =
                snap.iter().filter(|e| e.track == track).map(|e| e.microbatch).collect();
            mbs.sort_unstable();
            // Exactly the newest 64 events of this track survive.
            assert_eq!(mbs, (1000 - 64..1000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn snapshot_during_writes_never_tears() {
        // A reader hammering snapshot() while a writer wraps the ring
        // must only ever see fully-published events (every field
        // consistent: microbatch == ts_us by construction).
        let rec = FlightRecorder::new(1, 8);
        std::thread::scope(|scope| {
            let writer = {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..20_000u64 {
                        rec.record(TraceEvent {
                            kind: SpanKind::Forward,
                            track: 0,
                            stage: 7,
                            microbatch: i as u32,
                            ts_us: i,
                            dur_us: i,
                            trace: i,
                        });
                    }
                })
            };
            let rec = &rec;
            for _ in 0..200 {
                for e in rec.snapshot() {
                    assert_eq!(e.microbatch as u64, e.ts_us, "torn slot surfaced");
                    assert_eq!(e.ts_us, e.dur_us, "torn slot surfaced");
                    assert_eq!(e.trace, e.ts_us, "torn slot surfaced");
                    assert_eq!(e.stage, 7);
                }
            }
            writer.join().unwrap();
        });
        assert_eq!(rec.recorded(), 20_000);
    }

    #[test]
    fn take_while_recording_ships_every_event_exactly_once() {
        let r = FlightRecorder::new(4, 1 << 15);
        let mut batches = Vec::new();
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4u32)
                .map(|track| {
                    let r = &r;
                    scope.spawn(move || {
                        for mb in 0..20_000 {
                            r.record_instant(SpanKind::AlertFiring, track, track, mb);
                        }
                    })
                })
                .collect();
            while !writers.iter().all(|w| w.is_finished()) {
                batches.push(r.take().unwrap());
            }
        });
        batches.push(r.take().unwrap());
        let mut shipped: Vec<(u32, u32)> =
            batches.iter().flatten().map(|e| (e.track, e.microbatch)).collect();
        shipped.sort_unstable();
        let recorded: Vec<(u32, u32)> =
            (0..4).flat_map(|track| (0..20_000).map(move |mb| (track, mb))).collect();
        assert_eq!(shipped, recorded);
        assert_eq!(r.take(), Ok(vec![]));
    }
}
