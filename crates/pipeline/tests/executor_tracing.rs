//! Integration tests of the traced threaded executor: the recorded
//! timeline must reproduce the paper's bubble model.

use std::time::Duration;

use pipemare_pipeline::{
    run_pipeline, ActivationLedger, Method, PipelinePlan, PipelineReport, Sleep,
};
use pipemare_telemetry::{
    FlightRecorder, NullRecorder, PipelineTimelineSummary, Recorder, SpanKind,
};
use pipemare_theory::gpipe_bubble_fraction;

fn run<R: Recorder>(
    method: Method,
    stages: usize,
    n_micro: usize,
    minibatches: usize,
    work: Duration,
    recorder: &R,
) -> PipelineReport {
    let plan = PipelinePlan::for_method(method, stages, n_micro, minibatches);
    run_pipeline(&plan, &mut vec![Sleep(work); stages], recorder, &ActivationLedger::new(stages, 1))
}

#[test]
fn gpipe_bubble_fraction_matches_model() {
    // P = 4 stages, N = 4 microbatches: the model says each GPipe
    // minibatch spans N+P−1 slots of which N are useful, so the mean
    // stage utilization is N/(N+P−1) and the measured bubble fraction
    // should approach (P−1)/(N+P−1) = 3/7 ≈ 0.43.
    let (p, n) = (4, 4);
    let rec = FlightRecorder::for_pipeline(p);
    run(Method::GPipe, p, n, 6, Duration::from_millis(2), &rec);
    let summary = PipelineTimelineSummary::from_events(&rec.events());
    let nominal = gpipe_bubble_fraction(p, n);
    assert_eq!(summary.microbatches, 24);
    assert!(
        (summary.bubble_fraction - nominal).abs() < 0.15,
        "measured bubble fraction {:.3} vs nominal {:.3}",
        summary.bubble_fraction,
        nominal
    );
}

#[test]
fn pipemare_bubble_smaller_than_gpipe() {
    let (p, n) = (4, 2);
    let work = Duration::from_millis(2);
    let gp = FlightRecorder::for_pipeline(p);
    run(Method::GPipe, p, n, 8, work, &gp);
    let pm = FlightRecorder::for_pipeline(p);
    run(Method::PipeMare, p, n, 8, work, &pm);
    let gp_summary = PipelineTimelineSummary::from_events(&gp.events());
    let pm_summary = PipelineTimelineSummary::from_events(&pm.events());
    assert!(
        pm_summary.bubble_fraction < gp_summary.bubble_fraction,
        "PipeMare bubble {:.3} should undercut GPipe {:.3}",
        pm_summary.bubble_fraction,
        gp_summary.bubble_fraction
    );
}

#[test]
fn trace_covers_every_stage_and_microbatch() {
    let (p, n, minibatches) = (3, 2, 2);
    let rec = FlightRecorder::for_pipeline(p);
    run(Method::PipeMare, p, n, minibatches, Duration::from_micros(200), &rec);
    let events = rec.events();
    let total = n * minibatches;
    for s in 0..p as u32 {
        for kind in [SpanKind::Forward, SpanKind::Backward] {
            let count = events.iter().filter(|e| e.kind == kind && e.stage == s).count();
            assert_eq!(count, total, "stage {s} {kind:?} span count");
        }
    }
    // The driver injected every microbatch exactly once.
    let injects = events.iter().filter(|e| e.kind == SpanKind::Inject).count();
    assert_eq!(injects, total);
    // GPipe-only flushes are absent; the final drain flush is present.
    assert_eq!(events.iter().filter(|e| e.kind == SpanKind::Flush).count(), 1);
}

#[test]
fn gpipe_emits_one_flush_per_minibatch() {
    let rec = FlightRecorder::for_pipeline(3);
    run(Method::GPipe, 3, 2, 4, Duration::from_micros(200), &rec);
    let flushes = rec.events().iter().filter(|e| e.kind == SpanKind::Flush).count();
    // One per minibatch boundary plus the final drain (which is empty).
    assert_eq!(flushes, 5);
}

#[test]
fn null_recorder_throughput_statistically_unchanged() {
    // The untraced entry point must not get slower with telemetry
    // compiled in; generous 25% margin over repeated runs to absorb
    // scheduler noise.
    let work = Duration::from_micros(500);
    let plain = || run(Method::PipeMare, 4, 4, 4, work, &NullRecorder).throughput;
    let traced = || {
        let rec = FlightRecorder::for_pipeline(4);
        run(Method::PipeMare, 4, 4, 4, work, &rec).throughput
    };
    let plain_best = (0..3).map(|_| plain()).fold(f64::MIN, f64::max);
    let traced_best = (0..3).map(|_| traced()).fold(f64::MIN, f64::max);
    assert!(
        plain_best > traced_best * 0.75,
        "NullRecorder path unexpectedly slow: plain {plain_best:.1} vs traced {traced_best:.1} mb/s"
    );
}
