//! Structured tracing and metrics for the PipeMare stack.
//!
//! PipeMare's whole argument is about *when* things happen — per-stage
//! delays `τ_fwd,i = (2(P−i)+1)/N`, bubble drains, backward/forward
//! interleave — so this crate gives the workspace a first-class
//! observability layer instead of ad-hoc prints:
//!
//! * [`event`]: [`TraceEvent`] spans (forward/backward compute,
//!   queue-wait, inject, flush, optimizer step) collected through the
//!   [`Recorder`] trait and read back through [`EventSource`].
//!   [`NullRecorder`] keeps disabled hot paths free of clock reads,
//!   locks and allocation.
//! * [`flight`]: the one enabled recorder, [`FlightRecorder`] —
//!   per-track bounded ring buffers of `Copy` events, each allocated
//!   when its track first records, with a lock-free seqlock write path
//!   and exact overwrite/drop accounting. Cheap enough to leave attached
//!   to production runs so an anomaly can dump the last seconds of
//!   pipeline history as a black box; `take` ships every event exactly
//!   once, and fails with [`Lapped`] instead of growing.
//! * [`metrics`]: atomic [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s behind a [`MetricsRegistry`] with text and JSON
//!   snapshot export.
//! * [`export`]: JSONL event logs, the one trace format read back (one
//!   writer and one reader for files and the wire), and Chrome
//!   `trace_event` JSON, written only, for `chrome://tracing` / Perfetto.
//! * [`summary`]: [`PipelineTimelineSummary`] — per-stage utilization,
//!   bubble fraction, and measured-vs-nominal forward delay derived from
//!   a recorded trace, through the one per-stage grouping of a trace
//!   that [`analyze`] and [`store`] read too.
//! * [`health`]: the training [`health::HealthMonitor`] — online Lemma 1
//!   / T2 stability margins from a trajectory curvature estimate λ̂,
//!   published as per-stage gauges. It raises no alarm: [`alert`] does.
//! * [`analyze`]: the `pm trace` trace-analysis engine — per-stage
//!   utilization and wait breakdown, windowed bubble/τ drift against
//!   the nominal models, straggler identification, causal-path
//!   reconstruction by trace id, and run diffs over JSONL traces.
//! * [`store`]: the live plane — [`LiveStore`], a fixed-size ring of
//!   periodic snapshots (counter deltas, per-stage utilization and τ
//!   drift folded incrementally from a flight recorder) sampled by the
//!   background [`StoreTicker`].
//! * [`journal`]: the durable plane — [`JournalWriter`] appends every
//!   ticker sample as a length-prefixed binary frame to rotating
//!   on-disk segments, compacts old raw segments into downsampled
//!   rollups, and caps total bytes; [`JournalReader`] reads journals
//!   back crash-tolerantly (a truncated tail frame is clean EOF) for
//!   `pm query`.
//! * [`alert`]: the [`AlertEngine`], the one code that turns a signal
//!   into an alarm — declarative [`AlertRule`]s (threshold, burn-rate and
//!   EWMA spike, with `for`-duration hysteresis) evaluated against each
//!   live sample or, for a trainer, once per optimizer step;
//!   transitions land on a flight-recorder track (a training run's alert
//!   log), in every stats scrape (`pm top`'s ALERTS pane), and on an
//!   optional firing hook.
//! * [`scrape`]: the [`Scrape`] — one binary frame holding a live
//!   process's identity, firing alerts and last samples as journal
//!   frames — the plain-TCP [`StatsEndpoint`] serving one per
//!   connection, and the [`scrape_once`] polling client `pm top` is
//!   built on.
//! * [`top`]: the `pm top` live-dashboard render engine over decoded
//!   scrapes, and the one run-vs-run diff of two samples that
//!   `pm top --baseline` and `pm query diff` print.
//! * [`json`]: the minimal JSON document model the exporters are built
//!   on (the workspace has no serde).
//! * [`codec`]: the workspace's one binary encoding — little-endian
//!   [`codec::Writer`]/[`codec::Reader`], the `u32` frame prefix and
//!   the typed [`codec::CodecError`] — behind journal segments, wire
//!   frames (`pipemare_comms`) and checkpoints (`pipemare_core`).
//!
//! # Example
//!
//! ```
//! use pipemare_telemetry::{
//!     FlightRecorder, MetricsRegistry, PipelineTimelineSummary, Recorder, SpanKind,
//! };
//!
//! let rec = FlightRecorder::for_pipeline(1);
//! let t0 = rec.now_us();
//! // ... do the forward work of microbatch 0 on stage 0 ...
//! rec.record_span(SpanKind::Forward, 0, 0, 0, t0, rec.now_us());
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("steps").inc();
//! reg.histogram("step_latency_us", &[100.0, 1000.0, 10000.0]).observe(42.0);
//!
//! let summary = PipelineTimelineSummary::from_events(&rec.events());
//! assert_eq!(summary.stages.len(), 1);
//! assert!(reg.snapshot().to_text().contains("steps 1"));
//! ```

pub mod alert;
pub mod analyze;
pub mod codec;
pub mod event;
pub mod export;
pub mod flight;
pub mod health;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod scrape;
pub mod store;
pub mod summary;
pub mod top;

pub use alert::{
    default_rules, training_rules, ActiveAlert, AlertCmp, AlertCondition, AlertEngine, AlertRule,
    AlertTransition, Severity, Signal,
};
pub use event::{
    EventSource, NullRecorder, Recorder, SpanKind, TraceEvent, NO_MICROBATCH, NO_TRACE,
};
pub use export::{
    chrome_trace, event_from_jsonl, event_to_jsonl, events_from_jsonl_string,
    events_to_jsonl_string, merge_worker_events, read_jsonl, sort_events, write_chrome_trace,
    write_jsonl,
};
pub use flight::{FlightRecorder, Lapped, DEFAULT_CAPACITY as FLIGHT_DEFAULT_CAPACITY};
pub use health::{HealthConfig, HealthMonitor, StageObservation};
pub use journal::{
    merge_journals, rollup, JournalConfig, JournalEntry, JournalReader, JournalWriter,
    JOURNAL_APPEND_BOUND_US,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use scrape::{scrape_once, Scrape, StatsEndpoint};
pub use store::{
    LiveSample, LiveStore, StageLive, StoreTicker, DEFAULT_SAMPLES, SAMPLE_COST_BOUND_US,
};
pub use summary::{PipelineTimelineSummary, StageTimeline};
