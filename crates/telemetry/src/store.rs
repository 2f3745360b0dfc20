//! The live time-series store: a bounded ring of periodic samples over
//! a [`MetricsRegistry`] and a flight-recorder event source.
//!
//! The post-mortem loop (flight recorder → black box → `pm trace`) only
//! answers questions after a run stops. [`LiveStore`] is the *while it
//! runs* counterpart: a background [`StoreTicker`] calls
//! [`LiveStore::sample`] every period, folding the events recorded
//! since the previous tick into per-stage utilization, compute means
//! and measured τ delay, alongside a full metrics snapshot (counters,
//! gauges, histogram summaries). Samples land in a fixed-size ring, so
//! memory is bounded no matter how long the run lives.
//!
//! ## The hot path is never blocked
//!
//! `sample()` reads the flight recorder through its seqlock snapshot
//! and the registry through per-instrument atomics — writers (stage
//! threads, the serving batcher) never wait on a sampler. The store's
//! own mutex is only ever taken by the ticker and by scrapers
//! ([`LiveStore::scrape`]), both off the hot path. The price is
//! bounded staleness: a scrape sees the world as of the latest tick,
//! at most one sample period (plus the sample cost) old.
//!
//! ## Incremental, not post-hoc
//!
//! Each sample groups the recorder's snapshot by stage once, through
//! [`crate::summary`]'s grouping (the one `pm trace summary` reads), and
//! keeps only the spans that *ended* after the previous tick, at full
//! length. Per-sample cost is one pass over the snapshot (bounded by the
//! flight-recorder ring capacity), not run length, and τ is the
//! summary's definition applied to the window's spans.
//! τ measurements need a forward and its backward inside one window;
//! pairs split across a tick boundary are skipped — with windows much
//! longer than a microbatch slot this biases τ by at most one window's
//! edge pairs, and the per-stage row reports how many pairs it used.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::alert::AlertEngine;
use crate::codec::CodecError;
use crate::event::{EventSource, TraceEvent};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::scrape::Scrape;
use crate::summary::{mean, total_us, StageFold};

/// Default ring capacity in samples (at 250 ms/tick ≈ 2 min of history).
pub const DEFAULT_SAMPLES: usize = 512;

/// Documented per-sample cost bound, asserted by the live-metrics bench
/// against a full pipeline-shaped flight recorder: one sample must stay
/// under this, which keeps a 250 ms ticker's overhead well below 1% of
/// step time.
pub const SAMPLE_COST_BOUND_US: u64 = 2_500;

/// One stage's live aggregate over a sample window.
#[derive(Clone, Debug, PartialEq)]
pub struct StageLive {
    /// Stage index.
    pub stage: u32,
    /// Fraction of the window spent in forward/backward/recompute.
    pub util: f64,
    /// Mean forward span µs in the window (NaN when none completed).
    pub fwd_us: f64,
    /// Mean backward span µs (NaN when none).
    pub bkwd_us: f64,
    /// Mean recompute span µs (NaN when none).
    pub recomp_us: f64,
    /// Total queue-wait µs in the window.
    pub wait_us: u64,
    /// Measured forward delay in microbatch slots over in-window
    /// fwd/bkwd pairs (NaN when no pair completed in the window).
    pub tau: f64,
    /// Number of fwd/bkwd pairs the τ estimate used.
    pub tau_pairs: usize,
    /// Events folded for this stage in the window.
    pub events: u64,
}

/// One periodic sample: the live per-stage view plus a full metrics
/// snapshot.
#[derive(Clone, Debug)]
pub struct LiveSample {
    /// Monotone sample sequence number (1-based).
    pub seq: u64,
    /// Store-clock microseconds at sample time.
    pub ts_us: u64,
    /// Window this sample covers (since the previous tick), µs.
    pub window_us: u64,
    /// Per-stage aggregates over the window (indexed by stage).
    pub stages: Vec<StageLive>,
    /// Registry snapshot at sample time.
    pub metrics: MetricsSnapshot,
    /// What this sample cost to take, µs.
    pub sample_cost_us: u64,
}

struct StoreInner {
    ring: VecDeque<LiveSample>,
    seq: u64,
    /// End of the previous window on the store clock.
    last_ts_us: u64,
    /// Latest event end seen at the previous tick, on the *recorder's*
    /// clock — the fold cutoff. Event timestamps come from the event
    /// source's own timebase, so "new since last tick" must be judged
    /// there, not on the store clock.
    last_event_end_us: u64,
    max_cost_us: u64,
}

/// A bounded ring of [`LiveSample`]s over optional metric and event
/// sources. See the module docs for the concurrency contract.
pub struct LiveStore {
    role: String,
    n_stages: usize,
    capacity: usize,
    registry: Option<Arc<MetricsRegistry>>,
    events: Option<Arc<dyn EventSource + Send + Sync>>,
    alerts: Mutex<Option<Arc<AlertEngine>>>,
    origin: Instant,
    inner: Mutex<StoreInner>,
}

impl LiveStore {
    /// Creates a store for a `n_stages`-stage process identified as
    /// `role` (e.g. `"orchestrator"`, `"worker-2"`, `"serve"`), holding
    /// up to [`DEFAULT_SAMPLES`] samples.
    pub fn new(role: &str, n_stages: usize) -> Self {
        Self::with_capacity(role, n_stages, DEFAULT_SAMPLES)
    }

    /// Creates a store with an explicit ring capacity in samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(role: &str, n_stages: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "live store needs a nonzero sample capacity");
        LiveStore {
            role: role.to_string(),
            n_stages,
            capacity,
            registry: None,
            events: None,
            alerts: Mutex::new(None),
            origin: Instant::now(),
            inner: Mutex::new(StoreInner {
                ring: VecDeque::new(),
                seq: 0,
                last_ts_us: 0,
                last_event_end_us: 0,
                max_cost_us: 0,
            }),
        }
    }

    /// Attaches a metrics registry; every sample snapshots it.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches an event source (typically a
    /// [`crate::FlightRecorder`]); every sample folds the events whose
    /// spans ended inside its window.
    pub fn with_events(mut self, events: Arc<dyn EventSource + Send + Sync>) -> Self {
        self.events = Some(events);
        self
    }

    /// Attaches an alert engine, also to a store already behind an
    /// `Arc`: every [`LiveStore::sample`] evaluates it against the fresh
    /// sample, and scrapes carry its firing alerts.
    pub fn attach_alerts(&self, engine: Arc<AlertEngine>) {
        *self.alerts.lock().unwrap() = Some(engine);
    }

    /// The attached alert engine, if any.
    pub fn alerts(&self) -> Option<Arc<AlertEngine>> {
        self.alerts.lock().unwrap().clone()
    }

    /// The process identity reported in scrapes.
    pub fn role(&self) -> &str {
        &self.role
    }

    /// Microseconds since the store's origin (its sample clock).
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Worst per-sample cost seen so far, µs.
    pub fn max_sample_cost_us(&self) -> u64 {
        self.inner.lock().unwrap().max_cost_us
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Whether no sample has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes one sample: folds the window's events, snapshots the
    /// registry, and pushes into the ring (evicting the oldest when
    /// full). Returns the new sample's sequence number.
    pub fn sample(&self) -> u64 {
        let t0 = Instant::now();
        let now_us = self.now_us();
        let (last_ts, cutoff) = {
            let inner = self.inner.lock().unwrap();
            (inner.last_ts_us, inner.last_event_end_us)
        };
        let window_us = now_us.saturating_sub(last_ts);
        let mut new_cutoff = cutoff;
        let stages = match &self.events {
            Some(src) => {
                let events = src.snapshot_events();
                // Only spans that ended since the last sample, at full
                // length; the stage count still comes from every event.
                let fold = StageFold::new(&events, self.n_stages, |e| e.ts_us + e.dur_us > cutoff);
                new_cutoff = fold.end_us.max(cutoff);
                live_stages(&fold, window_us.max(1))
            }
            None => Vec::new(),
        };
        let metrics = match &self.registry {
            Some(reg) => reg.snapshot(),
            None => MetricsSnapshot::default(),
        };
        let sample_cost_us = t0.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().unwrap();
        inner.seq += 1;
        inner.last_ts_us = now_us;
        inner.last_event_end_us = new_cutoff;
        inner.max_cost_us = inner.max_cost_us.max(sample_cost_us);
        let seq = inner.seq;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        let sample = LiveSample { seq, ts_us: now_us, window_us, stages, metrics, sample_cost_us };
        let engine = self.alerts.lock().unwrap().clone();
        if let Some(engine) = engine {
            inner.ring.push_back(sample);
            let latest = inner.ring.back().cloned();
            drop(inner);
            // Evaluated outside the store lock: a slow firing hook must
            // not block scrapes.
            if let Some(latest) = latest {
                engine.evaluate(&latest);
            }
        } else {
            inner.ring.push_back(sample);
        }
        seq
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<LiveSample> {
        self.inner.lock().unwrap().ring.back().cloned()
    }

    /// A copy of the retained sample history, oldest first.
    pub fn history(&self) -> Vec<LiveSample> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// The stats scrape: a [`Scrape`] frame of the store's identity,
    /// firing alerts and last two samples (none before the first tick).
    /// It reads the ring, never the recorders, so it is at most one
    /// ticker period stale and cannot block a recording thread.
    ///
    /// # Errors
    ///
    /// [`CodecError::FrameTooLarge`] if the samples outgrow a frame.
    pub fn scrape(&self) -> Result<Vec<u8>, CodecError> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.ring.len().saturating_sub(2);
        let samples = inner.ring.iter().skip(skip).cloned().collect();
        let max_sample_cost_us = inner.max_cost_us;
        drop(inner);
        Scrape {
            role: self.role.clone(),
            n_stages: self.n_stages,
            max_sample_cost_us,
            alerts: self.alerts().map(|engine| engine.active()).unwrap_or_default(),
            samples,
        }
        .encode()
    }

    /// Samples now, then [`LiveStore::scrape`]s: the answer to an
    /// in-band `StatsRequest`, current even where no ticker runs.
    ///
    /// # Errors
    ///
    /// As [`LiveStore::scrape`].
    pub fn scrape_fresh(&self) -> Result<Vec<u8>, CodecError> {
        self.sample();
        self.scrape()
    }
}

/// Per-stage aggregates of a sample's spans over its `window_us`-long
/// window.
fn live_stages(fold: &StageFold, window_us: u64) -> Vec<StageLive> {
    let mean_us = |spans: &[&TraceEvent]| {
        if spans.is_empty() {
            f64::NAN
        } else {
            total_us(spans) as f64 / spans.len() as f64
        }
    };
    fold.stages
        .iter()
        .zip(0..)
        .map(|(live, stage)| {
            let busy_us = total_us(&live.fwd) + total_us(&live.bkwd) + total_us(&live.recomp);
            let tau = live.tau_fwd(|_| true);
            StageLive {
                stage,
                util: (busy_us as f64 / window_us as f64).min(1.0),
                fwd_us: mean_us(&live.fwd),
                bkwd_us: mean_us(&live.bkwd),
                recomp_us: mean_us(&live.recomp),
                wait_us: total_us(&live.wait_fwd) + total_us(&live.wait_bkwd),
                tau: mean(&tau).unwrap_or(f64::NAN),
                tau_pairs: tau.len(),
                events: live.events() as u64,
            }
        })
        .collect()
}

/// A background thread sampling a [`LiveStore`] at a fixed period.
///
/// Stop promptly with [`StoreTicker::stop`]; dropping the handle also
/// stops and joins the thread.
pub struct StoreTicker {
    stop_tx: Option<std::sync::mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StoreTicker {
    /// Spawns the ticker: one [`LiveStore::sample`] every `period`.
    pub fn spawn(store: Arc<LiveStore>, period: Duration) -> Self {
        Self::spawn_with_hook(store, period, |_| {})
    }

    /// [`StoreTicker::spawn`] plus a per-tick hook called with the
    /// fresh sample — the journal append path. The hook runs on the
    /// ticker thread, so its cost delays the next tick, never a
    /// recording thread; it sees ticker samples only (on-demand samples
    /// taken by in-band scrapes are not replayed through it, which is
    /// why journal appends dedupe by seq).
    pub fn spawn_with_hook(
        store: Arc<LiveStore>,
        period: Duration,
        mut hook: impl FnMut(&LiveSample) + Send + 'static,
    ) -> Self {
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("pm-live-ticker".into())
            .spawn(move || {
                // recv_timeout doubles as the periodic sleep and the
                // prompt-stop signal (a send or a disconnect ends it).
                while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                    stop_rx.recv_timeout(period)
                {
                    store.sample();
                    if let Some(sample) = store.latest() {
                        hook(&sample);
                    }
                }
            })
            .expect("spawning the ticker thread cannot fail");
        StoreTicker { stop_tx: Some(stop_tx), handle: Some(handle) }
    }

    /// Stops the ticker and joins its thread. Idempotent.
    pub fn stop(&mut self) {
        if let Some(tx) = self.stop_tx.take() {
            let _ = tx.send(());
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StoreTicker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Recorder, SpanKind, NO_TRACE};
    use crate::flight::FlightRecorder;

    fn record_pair(rec: &FlightRecorder, stage: u32, mb: u32, t0: u64) {
        rec.record(TraceEvent {
            kind: SpanKind::Forward,
            track: stage,
            stage,
            microbatch: mb,
            ts_us: t0,
            dur_us: 10,
            trace: NO_TRACE,
        });
        rec.record(TraceEvent {
            kind: SpanKind::Backward,
            track: stage,
            stage,
            microbatch: mb,
            ts_us: t0 + 20,
            dur_us: 10,
            trace: NO_TRACE,
        });
    }

    #[test]
    fn empty_store_scrapes_a_valid_zero_payload() {
        let store = LiveStore::new("idle", 2);
        assert!(store.is_empty());
        let scrape = Scrape::decode(&store.scrape().unwrap()).unwrap();
        assert_eq!(scrape.role, "idle");
        assert_eq!(scrape.latest().map_or(0, |s| s.seq), 0);
        assert_eq!(scrape.latest().map_or(0, |s| s.stages.len()), 0);
    }

    #[test]
    fn sample_folds_window_events_per_stage() {
        let rec = Arc::new(FlightRecorder::new(3, 64));
        let store = LiveStore::new("test", 2).with_events(rec.clone());
        record_pair(&rec, 0, 0, 0);
        record_pair(&rec, 1, 0, 5);
        store.sample();
        let s = store.latest().unwrap();
        assert_eq!(s.seq, 1);
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].events, 2);
        assert!((s.stages[0].fwd_us - 10.0).abs() < 1e-9);
        assert!((s.stages[0].bkwd_us - 10.0).abs() < 1e-9);
        assert_eq!(s.stages[0].tau_pairs, 1);
        // One fwd/bkwd pair, no other backward between → τ = 1 slot.
        assert!((s.stages[0].tau - 1.0).abs() < 1e-9);
    }

    #[test]
    fn second_sample_only_sees_new_events() {
        let rec = Arc::new(FlightRecorder::new(2, 64));
        let store = LiveStore::new("test", 1).with_events(rec.clone());
        record_pair(&rec, 0, 0, 0);
        store.sample();
        assert_eq!(store.latest().unwrap().stages[0].events, 2);
        // No new events: the second window is empty even though the
        // ring still holds the old spans.
        std::thread::sleep(Duration::from_millis(2));
        store.sample();
        let s = store.latest().unwrap();
        assert_eq!(s.seq, 2);
        assert_eq!(s.stages[0].events, 0);
        assert!(s.stages[0].fwd_us.is_nan());
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let store = LiveStore::with_capacity("test", 0, 3);
        for _ in 0..5 {
            store.sample();
        }
        let hist = store.history();
        assert_eq!(hist.len(), 3);
        assert_eq!(hist.first().unwrap().seq, 3);
        assert_eq!(hist.last().unwrap().seq, 5);
    }

    #[test]
    fn counter_deltas_are_per_window() {
        let reg = Arc::new(MetricsRegistry::new());
        let store = LiveStore::new("test", 0).with_registry(reg.clone());
        reg.counter("reqs").add(5);
        store.sample();
        reg.counter("reqs").add(3);
        store.sample();
        let scrape = Scrape::decode(&store.scrape().unwrap()).unwrap();
        assert_eq!(
            scrape.latest().unwrap().metrics.get("reqs"),
            Some(&crate::metrics::MetricValue::Counter(8)),
            "cumulative counter in the snapshot"
        );
        assert_eq!(scrape.counter_delta("reqs"), Some(3), "delta over the last window");
    }

    #[test]
    fn scrape_reports_nominal_tau_per_stage() {
        let rec = Arc::new(FlightRecorder::new(4, 64));
        let store = LiveStore::new("test", 3).with_events(rec.clone());
        record_pair(&rec, 0, 0, 0);
        store.sample();
        let scrape = Scrape::decode(&store.scrape().unwrap()).unwrap();
        let rows = &scrape.latest().unwrap().stages;
        assert_eq!(rows.len(), 3);
        // Stage 0 of P=3: nominal 2(P−1−0)+1 = 5 slots.
        assert_eq!(crate::top::tau_nominal(scrape.n_stages, rows[0].stage), 5.0);
        assert_eq!(crate::top::tau_nominal(scrape.n_stages, rows[2].stage), 1.0);
    }

    #[test]
    fn ticker_samples_periodically_and_stops() {
        let rec = Arc::new(FlightRecorder::new(1, 64));
        let store = Arc::new(LiveStore::new("ticked", 1).with_events(rec.clone()));
        let mut ticker = StoreTicker::spawn(Arc::clone(&store), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        ticker.stop();
        let n = store.len();
        assert!(n >= 2, "ticker took only {n} samples in 40 ms at 5 ms period");
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(store.len(), n, "ticker kept sampling after stop");
    }

    #[test]
    fn attached_alert_engine_evaluates_on_sample_and_scrapes() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.gauge("health.stage0.alpha_margin").set(0.5);
        let engine = Arc::new(crate::alert::AlertEngine::new(crate::alert::default_rules()));
        let store = LiveStore::new("test", 1).with_registry(reg.clone());
        store.attach_alerts(Arc::clone(&engine));
        store.sample();
        assert_eq!(engine.active().len(), 1, "sampling evaluated the engine");
        let alerts = Scrape::decode(&store.scrape().unwrap()).unwrap().alerts;
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "alpha_margin_floor");
        assert_eq!(alerts[0].label, "stage0");
        // Margin recovers: the alert leaves the scrape.
        reg.gauge("health.stage0.alpha_margin").set(1.5);
        store.sample();
        let scrape = Scrape::decode(&store.scrape().unwrap()).unwrap();
        assert_eq!(scrape.alerts.len(), 0);
    }

    #[test]
    fn hooked_ticker_passes_fresh_samples_to_the_hook() {
        let store = Arc::new(LiveStore::new("hooked", 0));
        let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
        let seen2 = Arc::clone(&seen);
        let mut ticker =
            StoreTicker::spawn_with_hook(Arc::clone(&store), Duration::from_millis(5), move |s| {
                seen2.lock().unwrap().push(s.seq);
            });
        std::thread::sleep(Duration::from_millis(40));
        ticker.stop();
        let seen = seen.lock().unwrap();
        assert!(seen.len() >= 2, "hook ran on only {} ticks", seen.len());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "hook sees monotone seqs: {seen:?}");
    }

    #[test]
    fn sample_cost_is_tracked_and_modest() {
        let rec = Arc::new(FlightRecorder::for_pipeline(4));
        for s in 0..4u32 {
            for mb in 0..200u32 {
                record_pair(&rec, s, mb, (mb as u64) * 50);
            }
        }
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("steps").add(7);
        let store = LiveStore::new("cost", 4).with_events(rec).with_registry(reg);
        store.sample();
        let cost = store.max_sample_cost_us();
        // Debug builds are slow; the release-mode bench asserts the
        // real SAMPLE_COST_BOUND_US. Here just prove it is tracked and
        // not catastrophic.
        assert!(cost < 1_000_000, "sample cost {cost} µs");
        assert_eq!(store.latest().unwrap().sample_cost_us, cost);
    }
}
