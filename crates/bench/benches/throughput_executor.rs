//! Criterion wall-clock validation of the throughput model (App. A.3 /
//! Table 1): the threaded pipeline executor measures GPipe's bubble
//! penalty against bubble-free PipeMare injection on real threads.
//!
//! Besides the criterion timings, one traced run per method is folded
//! into an [`ExperimentLog`] saved under `PIPEMARE_EXPERIMENTS_DIR`.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use pipemare_bench::report::ExperimentLog;
use pipemare_pipeline::{run_pipeline, ActivationLedger, Method, PipelinePlan, Sleep};
use pipemare_telemetry::{FlightRecorder, NullRecorder, PipelineTimelineSummary};
use pipemare_theory::gpipe_bubble_fraction;

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_pipeline");
    group.sample_size(10);
    let work = Duration::from_millis(1);
    for &(p, n) in &[(4usize, 2usize), (4, 8)] {
        for method in [Method::GPipe, Method::PipeMare] {
            let id = format!("{}_P{p}_N{n}", method.name());
            group.bench_with_input(BenchmarkId::from_parameter(id), &(p, n), |bench, &(p, n)| {
                let (plan, ledger) =
                    (PipelinePlan::for_method(method, p, n, 4), ActivationLedger::new(p, 1));
                let mut work = vec![Sleep(work); p];
                bench.iter(|| {
                    std::hint::black_box(run_pipeline(&plan, &mut work, &NullRecorder, &ledger))
                });
            });
        }
    }
    group.finish();
}

/// One traced run per method: measured bubble fraction, throughput and
/// per-stage utilization, written as a machine-readable experiment log.
fn save_experiment_log() {
    let (p, n, minibatches) = (4usize, 4usize, 6usize);
    let work = Duration::from_millis(1);
    let mut log = ExperimentLog::new("throughput_executor");
    let nominal = gpipe_bubble_fraction(p, n);
    log.push_scalar("nominal.gpipe_bubble_fraction", nominal);
    for method in [Method::GPipe, Method::PipeMare] {
        let rec = FlightRecorder::for_pipeline(p);
        let plan = PipelinePlan::for_method(method, p, n, minibatches);
        let report =
            run_pipeline(&plan, &mut vec![Sleep(work); p], &rec, &ActivationLedger::new(p, 1));
        let summary = PipelineTimelineSummary::from_events(&rec.events());
        let name = method.name().to_lowercase();
        log.push_scalar(&format!("{name}.throughput_mb_per_s"), report.throughput);
        log.push_scalar(&format!("{name}.bubble_fraction"), summary.bubble_fraction);
        log.push_series(
            &format!("{name}.stage_utilization"),
            summary.stages.iter().map(|s| s.utilization),
        );
    }
    match log.save() {
        Ok(path) => println!("experiment log: {}", path.display()),
        Err(e) => eprintln!("could not save experiment log: {e}"),
    }
}

criterion_group!(benches, bench_executor);

fn main() {
    benches();
    save_experiment_log();
}
