//! Live-observability overhead: what the stats plane costs a running
//! pipeline.
//!
//! Three questions, each with a stated bound enforced in-process:
//!
//! 1. **Per-sample cost** — one [`LiveStore::sample`] over a full
//!    flight-recorder ring plus a populated metrics registry must stay
//!    under [`SAMPLE_COST_BOUND_US`] (the store's documented bound).
//! 2. **Steady-state overhead** — at the production 250 ms ticker
//!    period, sampling must steal at most `bound_overhead_fraction`
//!    (1%) of wall-clock from the threads doing real work.
//! 3. **Scrape latency** — a full TCP scrape round trip
//!    (connect, one scrape frame, close) against a live endpoint must
//!    not block the hot path and must complete promptly.
//!
//! The run writes `bench_live_metrics.json`: `bound_*` and `live.*`
//! keys are deterministic and gated by `scripts/check_bench.sh`;
//! `seconds.*` / `metric.*` keys are informational wall-clock numbers.
//!
//! Passing `--test` anywhere runs a seconds-long smoke version; the
//! deterministic workload and keys are identical in both modes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pipemare_bench::report::ExperimentLog;
use pipemare_telemetry::{
    scrape_once, FlightRecorder, LiveStore, MetricsRegistry, Recorder, Scrape, SpanKind,
    StatsEndpoint, TraceEvent, SAMPLE_COST_BOUND_US,
};

const STAGES: usize = 4;
/// Fraction of wall-clock the 250 ms ticker may steal from a stage.
const BOUND_OVERHEAD_FRACTION: f64 = 0.01;
/// The production sampling period the overhead bound is stated at.
const TICK_PERIOD: Duration = Duration::from_millis(250);

fn event(i: u64, ts_us: u64) -> TraceEvent {
    TraceEvent {
        kind: if i.is_multiple_of(2) { SpanKind::Forward } else { SpanKind::Backward },
        track: (i % STAGES as u64) as u32,
        stage: (i % STAGES as u64) as u32,
        microbatch: (i % 8) as u32,
        ts_us,
        dur_us: 40,
        trace: i % 8 + 1,
    }
}

/// A live plane over a realistically busy process: full flight ring,
/// a registry with the metric families real roles export.
fn busy_store() -> (Arc<FlightRecorder>, Arc<MetricsRegistry>, Arc<LiveStore>) {
    let recorder = Arc::new(FlightRecorder::for_pipeline(STAGES));
    let registry = Arc::new(MetricsRegistry::new());
    for s in 0..STAGES {
        registry.gauge(&format!("wire.stage{s}.tx_bytes")).set(1e6);
        registry.gauge(&format!("wire.stage{s}.rx_bytes")).set(2e6);
        registry.gauge(&format!("health.stage{s}.alpha_margin")).set(0.25);
    }
    registry.counter("serve.accepted").add(100);
    let hist = registry.histogram("serve.batch_rows", &[1.0, 2.0, 4.0, 8.0, 16.0]);
    for i in 0..64 {
        hist.observe((i % 9) as f64);
    }
    let store =
        Arc::new(LiveStore::new("bench", STAGES).with_registry(Arc::clone(&registry)).with_events(
            Arc::clone(&recorder) as Arc<dyn pipemare_telemetry::EventSource + Send + Sync>,
        ));
    (recorder, registry, store)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let reps = if smoke { 5 } else { 15 };
    let burst: u64 = 2_000; // events recorded between two ticks

    let mut log = ExperimentLog::new("bench_live_metrics");
    log.push_scalar("bound_sample_cost_us", SAMPLE_COST_BOUND_US as f64);
    log.push_scalar("bound_overhead_fraction", BOUND_OVERHEAD_FRACTION);
    log.push_scalar(
        "host_parallelism",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64,
    );

    // --- 1. Per-sample cost over a busy window ----------------------
    let (recorder, _registry, store) = busy_store();
    let mut ts = 0u64;
    let mut samples_us: Vec<f64> = (0..reps)
        .map(|_| {
            // A tick's worth of fresh events lands between samples.
            for i in 0..burst {
                ts += 100;
                recorder.record(std::hint::black_box(event(i, ts)));
            }
            let t0 = Instant::now();
            store.sample();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let sample_us = samples_us[samples_us.len() / 2];
    println!(
        "sample cost over {burst}-event windows (median of {reps}): {sample_us:.1} µs \
         (bound {SAMPLE_COST_BOUND_US} µs, store max {} µs)",
        store.max_sample_cost_us()
    );
    log.push_series("seconds.sample", [sample_us / 1e6]);
    log.push_scalar("metric.sample_cost_us", sample_us);
    assert!(
        sample_us <= SAMPLE_COST_BOUND_US as f64,
        "per-sample cost {sample_us:.1} µs exceeds the stated {SAMPLE_COST_BOUND_US} µs bound"
    );

    // --- 2. Steady-state overhead at the production tick period -----
    // The ticker's steal fraction is sample cost over period: the
    // sampler owns the store lock and the ring snapshot, never the
    // recording threads, so cost/period bounds what it can take.
    let overhead = (sample_us / 1e6) / TICK_PERIOD.as_secs_f64();
    println!(
        "steady-state overhead at {} ms period: {:.4}% (bound {:.1}%)",
        TICK_PERIOD.as_millis(),
        overhead * 1e2,
        BOUND_OVERHEAD_FRACTION * 1e2
    );
    log.push_scalar("metric.overhead_fraction", overhead);
    assert!(
        overhead <= BOUND_OVERHEAD_FRACTION,
        "sampling overhead {overhead:.4} exceeds the stated {BOUND_OVERHEAD_FRACTION} bound"
    );

    // Recording stays wait-free while a scrape storm runs: per-event
    // cost with a tight concurrent sampling loop vs without.
    let quiet_s = {
        let t0 = Instant::now();
        for i in 0..50_000u64 {
            ts += 1;
            recorder.record(std::hint::black_box(event(i, ts)));
        }
        t0.elapsed().as_secs_f64() / 50_000.0
    };
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let storm = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.sample();
            }
        })
    };
    let stormy_s = {
        let t0 = Instant::now();
        for i in 0..50_000u64 {
            ts += 1;
            recorder.record(std::hint::black_box(event(i, ts)));
        }
        t0.elapsed().as_secs_f64() / 50_000.0
    };
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    storm.join().expect("sampler thread");
    println!(
        "record path: {:.1} ns/event quiet, {:.1} ns/event under a sample storm",
        quiet_s * 1e9,
        stormy_s * 1e9
    );
    log.push_series("seconds.record_quiet_vs_storm", [quiet_s, stormy_s]);

    // --- 3. TCP scrape round trip ------------------------------------
    let endpoint = StatsEndpoint::bind("127.0.0.1:0", Arc::clone(&store))
        .expect("stats endpoint binds an ephemeral port");
    let addr = endpoint.addr().to_string();
    let mut rtts: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let frame = scrape_once(&addr, Duration::from_secs(2)).expect("scrape succeeds");
            assert!(!frame.is_empty());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    rtts.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let rtt = rtts[rtts.len() / 2];
    println!("tcp scrape round trip (median of {reps}): {:.1} µs", rtt * 1e6);
    log.push_series("seconds.scrape_rtt", [rtt]);
    assert!(rtt < 0.25, "a local scrape round trip took {rtt:.3} s");

    // --- Deterministic payload shape (gated) -------------------------
    let scrape = Scrape::decode(&store.scrape().expect("scrape encodes")).expect("scrape decodes");
    let latest = scrape.latest().expect("the store has sampled");
    let stages = latest.stages.len();
    log.push_scalar("live.stages", stages as f64);
    log.push_scalar("live.role_is_bench", f64::from(scrape.role == "bench"));
    log.push_scalar(
        "live.has_wire_gauges",
        f64::from(latest.metrics.get("wire.stage0.tx_bytes").is_some()),
    );
    assert_eq!(stages, STAGES, "every stage must appear in the scrape payload");

    match log.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write experiment log: {e}"),
    }
    if smoke {
        println!(
            "\nlive_metrics smoke OK (sample {sample_us:.1} µs, overhead {:.4}%)",
            overhead * 1e2
        );
    }
}
