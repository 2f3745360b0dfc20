//! Integration tests for the always-on flight recorder: anomaly
//! black-box dumps out of a real diverging run, bit-identical training
//! with the recorder attached, and property tests over the export
//! round-trips and the ring's exact accounting.

use std::sync::Arc;

use proptest::prelude::*;

use pipemare::core::{run_regression_training, HealthHook, TrainConfig};
use pipemare::data::isotropic_regression;
use pipemare::nn::LinearRegression;
use pipemare::optim::{ConstantLr, OptimizerKind};
use pipemare::pipeline::{
    run_pipeline, ActivationLedger, Method, PipelinePlan, RecomputePolicy, Sleep,
};
use pipemare::telemetry::{
    analyze, read_jsonl, write_jsonl, EventSource, FlightRecorder, HealthConfig, HealthEventKind,
    HealthMonitor, LiveStore, MetricValue, MetricsRegistry, PipelineTimelineSummary, Recorder,
    Severity, SpanKind, TraceEvent, NO_MICROBATCH,
};
use pipemare::theory::lemma1_max_alpha_frac;

mod common;
use common::within;

const P: usize = 4;
const D: usize = 12;
const LAMBDA: f64 = 8.0;

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

fn alpha_unstable() -> f32 {
    (1.3 * lemma1_max_alpha_frac(LAMBDA, (2 * (P - 1) + 1) as f64)) as f32
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pm_flight_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The acceptance path: a shared flight recorder sees the threaded
/// executor's stage spans and the trainer's step spans; the induced
/// divergence dumps a black box that the pmtrace engine can summarize
/// with per-stage utilization, wait breakdown, and measured-vs-nominal
/// τ — all from bounded memory.
#[test]
fn induced_divergence_dumps_black_box_that_pmtrace_summarizes() {
    within("induced_divergence_dumps_black_box_that_pmtrace_summarizes", || {
        let dir = temp_dir("blackbox");
        let flight = Arc::new(FlightRecorder::for_pipeline(P));
        let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), P));

        // Stage spans into the shared rings first, so the dump has pipeline
        // history, not just trainer steps.
        run_pipeline(
            &PipelinePlan::for_method(Method::PipeMare, P, 4, 6),
            &mut [Sleep(std::time::Duration::from_micros(500)); P],
            flight.as_ref(),
            &ActivationLedger::new(P, 1),
        );
        let events = flight.snapshot_events();
        monitor.ingest_events(&events);
        let timeline = PipelineTimelineSummary::from_events(&events);
        assert_eq!(timeline.stages.len(), P);
        assert!(!flight.is_empty());

        let ds = isotropic_regression(D, LAMBDA as f32);
        let model = LinearRegression::new(D);
        let hook = HealthHook::new(Arc::clone(&monitor))
            .black_box_on(Arc::clone(&flight), &dir)
            .black_box_window_us(600_000_000);
        assert!(!hook.black_box_taken());
        let cfg = TrainConfig::naive_async(P, 1, sgd(), Box::new(ConstantLr(alpha_unstable())));
        let (_, diverged) =
            run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook)).unwrap();
        assert!(diverged, "α = 1.3× the stage-0 bound must diverge");

        // The monitor recorded exactly one dump (one-shot), as an event and
        // in the report.
        let dumps: Vec<_> = monitor
            .events()
            .iter()
            .filter(|e| e.kind == HealthEventKind::BlackBoxDump)
            .cloned()
            .collect();
        assert_eq!(dumps.len(), 1, "{dumps:?}");
        assert_eq!(dumps[0].severity, Severity::Info);
        let report = monitor.report("flight integration");
        assert_eq!(report.black_boxes.len(), 1);
        let (step, path) = report.black_boxes[0].clone();
        assert_eq!(dumps[0].step, step);
        assert!(report.to_text().contains("pm trace summary"), "{}", report.to_text());

        // The dump reads back and summarizes: per-stage rows with
        // utilization, the wait breakdown, and the measured-vs-nominal τ
        // table (nominal 2(P−1)+1 = 7 for stage 0 at P = 4).
        let events = read_jsonl(std::path::Path::new(&path)).expect("dump readable");
        assert_eq!(events.len(), dumps[0].value as usize);
        assert!(events.iter().any(|e| e.kind == SpanKind::Forward), "stage spans in dump");
        assert!(events.iter().any(|e| e.kind == SpanKind::Step), "trainer steps in dump");
        let text = analyze::summary_text(&events, "dump", None);
        assert!(text.contains("stage   util"), "{text}");
        assert!(text.contains("wait_fwd_ms"), "{text}");
        assert!(text.contains("wait_bkwd_ms"), "{text}");
        assert!(text.contains("/7.0"), "{text}");
        assert!(text.contains("bubble fraction"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    })
}

/// Attaching the flight recorder must not perturb training: same data,
/// same seed, with and without the hook, bit-identical losses.
#[test]
fn flight_attached_training_is_bit_identical() {
    within("flight_attached_training_is_bit_identical", || {
        let ds = isotropic_regression(D, LAMBDA as f32);
        let model = LinearRegression::new(D);
        let alpha = (0.3 * lemma1_max_alpha_frac(LAMBDA, 7.0)) as f32;
        let cfg = || TrainConfig::naive_async(P, 1, sgd(), Box::new(ConstantLr(alpha)));

        let (plain, d0) = run_regression_training(&model, &ds, cfg(), 300, 7, None).unwrap();

        let flight = Arc::new(FlightRecorder::for_pipeline(P));
        let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), P));
        let hook = HealthHook::new(Arc::clone(&monitor))
            .black_box_on(Arc::clone(&flight), temp_dir("noop"));
        let (traced, d1) = run_regression_training(&model, &ds, cfg(), 300, 7, Some(hook)).unwrap();

        assert!(!d0 && !d1);
        assert_eq!(plain, traced, "flight recording must not change the numerics");
        // The stable run never dumped, but every step left a span.
        assert_eq!(monitor.report("noop").black_boxes.len(), 0);
        let steps = flight.snapshot().iter().filter(|e| e.kind == SpanKind::Step).count();
        assert_eq!(steps, 300);
    })
}

/// The per-stage views of one trace agree with its timeline summary:
/// `pmtrace drift`'s windows, the health monitor's τ histograms and a
/// live-store sample read the same spans and the same τ definition, for
/// a PipeMare plan and a segmented-recompute plan.
#[test]
fn drift_health_and_live_views_agree_with_the_summary() {
    within("drift_health_and_live_views_agree_with_the_summary", || {
        let plans = [
            PipelinePlan::for_method(Method::PipeMare, P, 2, 3),
            PipelinePlan::for_recompute(RecomputePolicy::Segmented { segment: 2 }, P, 2, 3),
        ];
        for (i, plan) in plans.iter().enumerate() {
            let flight = Arc::new(FlightRecorder::for_pipeline(P));
            let work = std::time::Duration::from_micros(200);
            run_pipeline(
                plan,
                &mut [Sleep(work); P],
                flight.as_ref(),
                &ActivationLedger::new(P, 1),
            );
            let events = flight.snapshot_events();
            let summary = PipelineTimelineSummary::from_events(&events);
            assert_eq!(summary.stages.len(), P);
            let replays = summary.stages.iter().any(|st| st.measured_recomp_delay_slots > 0.0);
            assert_eq!(replays, i == 1, "only the segmented plan replays");

            // (a) Drift puts every busy µs of a stage in exactly one window.
            // Keeping only stage s's events as stage 0 (the rest become `Step`
            // spans, which leaves the span and so the windows where they were)
            // makes a one-stage trace, whose window busy time is
            // (1 − bubble) × width.
            for (s, st) in summary.stages.iter().enumerate() {
                let solo: Vec<TraceEvent> = events
                    .iter()
                    .map(|e| {
                        let kind = if e.stage as usize == s { e.kind } else { SpanKind::Step };
                        TraceEvent { kind, stage: 0, ..*e }
                    })
                    .collect();
                let windows = analyze::windowed_stats(&solo, 7);
                assert_eq!(windows.last().unwrap().t1_us, summary.span_us);
                let busy: u64 = windows
                    .iter()
                    .map(|w| {
                        ((1.0 - w.bubble_fraction) * (w.t1_us - w.t0_us) as f64).round() as u64
                    })
                    .sum();
                assert_eq!(busy, st.fwd_us + st.bkwd_us + st.recomp_us, "stage {s}");
            }

            // (b) The health monitor's delay histograms average to the
            // summary's measured delays.
            let registry = MetricsRegistry::new();
            HealthMonitor::with_registry(HealthConfig::default(), P, &registry)
                .ingest_events(&events);
            let snap = registry.snapshot();
            let hist_mean = |name: String| match snap.get(&name) {
                Some(MetricValue::Histogram(h)) if h.count > 0 => h.sum / h.count as f64,
                Some(MetricValue::Histogram(_)) => 0.0,
                other => panic!("{name}: {other:?}"),
            };
            for (s, st) in summary.stages.iter().enumerate() {
                assert_eq!(
                    hist_mean(format!("pipeline.stage{s}.tau_fwd")),
                    st.measured_delay_slots
                );
                assert_eq!(
                    hist_mean(format!("pipeline.stage{s}.tau_recomp")),
                    st.measured_recomp_delay_slots
                );
            }

            // (c) A live sample over the same recorder, taken after the run,
            // measures the same τ_fwd.
            let store = LiveStore::new("agree", P).with_events(flight.clone());
            store.sample();
            let sample = store.latest().unwrap();
            for (live, st) in sample.stages.iter().zip(&summary.stages) {
                assert!(live.tau_pairs > 0, "stage {}", st.stage);
                assert_eq!(live.tau, st.measured_delay_slots, "stage {}", st.stage);
            }
        }
    })
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    ((0usize..8, 0u32..6, 0u32..6), (0u32..101, 0u64..1_000_000, 0u64..10_000, 0u64..5)).prop_map(
        |((k, track, stage), (mb, ts_us, dur_us, trace))| {
            let kind = match k {
                0 => SpanKind::Forward,
                1 => SpanKind::Backward,
                2 => SpanKind::Recompute,
                3 => SpanKind::QueueWaitFwd,
                4 => SpanKind::QueueWaitBkwd,
                5 => SpanKind::Inject,
                6 => SpanKind::Flush,
                _ => SpanKind::Step,
            };
            TraceEvent {
                kind,
                track,
                stage,
                microbatch: if mb == 100 { NO_MICROBATCH } else { mb },
                ts_us,
                // Instants carry no duration.
                dur_us: if kind.is_instant() { 0 } else { dur_us },
                trace,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// JSONL write → read reproduces the event list exactly: same
    /// order, same fields.
    #[test]
    fn exports_roundtrip_identically(events in prop::collection::vec(arb_event(), 0..60)) {
        let dir = temp_dir(&format!("rt{}", events.len()));
        let path = dir.join("t.jsonl");
        write_jsonl(&events, &path).unwrap();
        let back = read_jsonl(&path).unwrap();
        prop_assert_eq!(&back, &events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ring wraparound keeps exactly the newest `capacity` events per
    /// track and counts every overwrite.
    #[test]
    fn ring_wraparound_is_exact(capacity in 1usize..32, n_events in 0usize..120) {
        let flight = FlightRecorder::new(1, capacity);
        for i in 0..n_events {
            flight.record(TraceEvent {
                kind: SpanKind::Step,
                track: 0,
                stage: 0,
                microbatch: i as u32,
                ts_us: i as u64,
                dur_us: 0,
                trace: 0,
            });
        }
        prop_assert_eq!(flight.recorded(), n_events as u64);
        prop_assert_eq!(flight.len(), n_events.min(capacity));
        prop_assert_eq!(flight.overwritten(), n_events.saturating_sub(capacity) as u64);
        let kept = flight.snapshot();
        let newest: Vec<u32> =
            (n_events.saturating_sub(capacity)..n_events).map(|i| i as u32).collect();
        let got: Vec<u32> = kept.iter().map(|e| e.microbatch).collect();
        prop_assert_eq!(got, newest);
    }

    /// Concurrent writers: within capacity nothing is lost; beyond it,
    /// the loss is counted exactly — `recorded = len + overwritten`
    /// always holds, and in-range tracks never increment `dropped`.
    #[test]
    fn concurrent_writes_account_exactly(
        n_threads in 1usize..5,
        per_thread in 1usize..120,
        capacity in 1usize..128,
    ) {
        let flight = Arc::new(FlightRecorder::new(n_threads, capacity));
        std::thread::scope(|scope| {
            for track in 0..n_threads {
                let flight = Arc::clone(&flight);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        flight.record(TraceEvent {
                            kind: SpanKind::Forward,
                            track: track as u32,
                            stage: track as u32,
                            microbatch: i as u32,
                            ts_us: i as u64,
                            dur_us: 1,
                            trace: 0,
                        });
                    }
                });
            }
        });
        let total = (n_threads * per_thread) as u64;
        prop_assert_eq!(flight.recorded(), total);
        prop_assert_eq!(flight.dropped(), 0);
        prop_assert_eq!(flight.len() as u64 + flight.overwritten(), total);
        prop_assert_eq!(flight.len(), n_threads * per_thread.min(capacity));
        prop_assert_eq!(flight.snapshot_events().len(), flight.len());
    }
}
