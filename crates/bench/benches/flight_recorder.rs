//! Flight-recorder overhead: the cost of always-on tracing.
//!
//! Measures the per-event cost of the two recorder tiers —
//! [`NullRecorder`] (the disabled baseline) and [`FlightRecorder`]
//! (bounded rings, the always-on tier) — on the hot `record()` path,
//! single-threaded and under 4-way write contention.
//!
//! The run writes `bench_flight_recorder.json` with the measured
//! per-event timings (informational `seconds.*` keys) and the ring's
//! exact accounting for a fixed workload (deterministic keys gated by
//! `scripts/check_bench.sh`), including the *stated overhead bound*
//! `bound_flight_overhead_ns_per_event`: the bench asserts that the
//! flight recorder's per-event cost exceeds the null baseline by at most
//! this much, so a regression on the hot path fails the bench itself,
//! not just the diff.
//!
//! Passing `--test` anywhere runs a seconds-long smoke version; the
//! deterministic workload and keys are identical in both modes.

use std::sync::Arc;
use std::time::Instant;

use criterion::Criterion;

use pipemare_bench::report::ExperimentLog;
use pipemare_telemetry::{FlightRecorder, NullRecorder, Recorder, SpanKind, TraceEvent};

/// Stated bound on the always-on tier's hot-path overhead vs the null
/// baseline, generous enough for noisy CI hosts (typical measured
/// overhead is tens of nanoseconds).
const BOUND_FLIGHT_OVERHEAD_NS: f64 = 1000.0;

fn event(i: u64) -> TraceEvent {
    TraceEvent {
        kind: SpanKind::Forward,
        track: (i % 4) as u32,
        stage: (i % 4) as u32,
        microbatch: i as u32,
        ts_us: i,
        dur_us: 1,
        trace: i,
    }
}

/// Median per-event seconds of `reps` timed runs of `n` records.
fn time_per_event<R: Recorder>(recorder: &R, n: u64, reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..n {
                recorder.record(std::hint::black_box(event(i)));
            }
            start.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    samples.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Per-event seconds with `threads` writers hammering one recorder.
fn time_per_event_concurrent(recorder: &Arc<FlightRecorder>, threads: u64, n: u64) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let recorder = Arc::clone(recorder);
            scope.spawn(move || {
                for i in 0..n {
                    recorder.record(std::hint::black_box(event(t * n + i)));
                }
            });
        }
    });
    start.elapsed().as_secs_f64() / (threads * n) as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let n: u64 = if smoke { 200_000 } else { 2_000_000 };
    let reps = if smoke { 3 } else { 7 };

    let mut log = ExperimentLog::new("bench_flight_recorder");
    log.push_scalar(
        "host_parallelism",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64,
    );
    log.push_scalar("bound_flight_overhead_ns_per_event", BOUND_FLIGHT_OVERHEAD_NS);

    // --- Criterion per-record microbenches --------------------------
    let mut criterion = Criterion::default().sample_size(if smoke { 3 } else { 10 });
    let mut group = criterion.benchmark_group("flight_recorder/record");
    let null = NullRecorder;
    let flight = FlightRecorder::new(4, 4096);
    // A ring is allocated by its track's first event: keep that out of the few samples.
    (0..4).for_each(|t| flight.record(event(t)));
    let mut i = 0u64;
    group.bench_function("null", |b| {
        b.iter(|| {
            i += 1;
            null.record(std::hint::black_box(event(i)));
        })
    });
    group.bench_function("flight", |b| {
        b.iter(|| {
            i += 1;
            flight.record(std::hint::black_box(event(i)));
        })
    });
    group.finish();

    // --- Measured per-event costs (informational) -------------------
    let null_s = time_per_event(&NullRecorder, n, reps);
    let flight_rec = FlightRecorder::new(4, 4096);
    let flight_s = time_per_event(&flight_rec, n, reps);
    let concurrent = Arc::new(FlightRecorder::new(4, 4096));
    let flight_mt_s = time_per_event_concurrent(&concurrent, 4, n / 4);

    println!("per-event cost over {n} records (median of {reps}):");
    println!("    null    {:>8.1} ns  (disabled baseline)", null_s * 1e9);
    println!("    flight  {:>8.1} ns  (always-on rings)", flight_s * 1e9);
    println!("    flight under 4-way contention: {:>8.1} ns", flight_mt_s * 1e9);
    log.push_series("seconds.per_event", [null_s, flight_s, flight_mt_s]);
    log.push_scalar("metric.flight_overhead_ns_per_event", (flight_s - null_s) * 1e9);

    // The stated bound is enforced here, not just recorded: a flight
    // recorder that got slow fails the bench run itself.
    let overhead_ns = (flight_s - null_s) * 1e9;
    assert!(
        overhead_ns <= BOUND_FLIGHT_OVERHEAD_NS,
        "flight-recorder overhead {overhead_ns:.1} ns/event exceeds the stated \
         {BOUND_FLIGHT_OVERHEAD_NS} ns bound"
    );

    // --- Exact accounting for a fixed workload (deterministic) ------
    // 4 in-range writers x 10k events into capacity-4096 rings, plus
    // 1k writes to an out-of-range track: every count is predictable
    // and gated against the checked-in baseline.
    let fixed = Arc::new(FlightRecorder::new(4, 4096));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let fixed = Arc::clone(&fixed);
            scope.spawn(move || {
                for i in 0..10_000u64 {
                    let mut ev = event(i);
                    ev.track = t as u32;
                    fixed.record(ev);
                }
            });
        }
    });
    for i in 0..1_000u64 {
        let mut ev = event(i);
        ev.track = 99;
        fixed.record(ev);
    }
    log.push_scalar("flight.recorded", fixed.recorded() as f64);
    log.push_scalar("flight.retained", fixed.len() as f64);
    log.push_scalar("flight.overwritten", fixed.overwritten() as f64);
    log.push_scalar("flight.dropped", fixed.dropped() as f64);
    println!(
        "fixed workload: recorded {}, retained {}, overwritten {}, dropped {}",
        fixed.recorded(),
        fixed.len(),
        fixed.overwritten(),
        fixed.dropped()
    );

    match log.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write experiment log: {e}"),
    }
    if smoke {
        println!("\nflight_recorder smoke OK (overhead {:.1} ns/event within bound)", overhead_ns);
    }
}
