//! Records the threaded pipeline executor running compute stages (a
//! four-layer MLP, one layer a stage, training on synthetic images) under
//! GPipe and PipeMare injection, and writes Chrome-trace JSON (open in
//! `chrome://tracing` or Perfetto), JSONL event logs, and a training
//! metrics snapshot.
//!
//! ```text
//! cargo run --example trace_pipeline
//! ```

use std::path::PathBuf;

use pipemare::comms::ChainStage;
use pipemare::core::{run, RunSpec, TrainConfig, TrainerMetrics};
use pipemare::data::SyntheticImages;
use pipemare::nn::{ImageBatch, Mlp};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{run_pipeline, ActivationLedger, Method, PipelinePlan};
use pipemare::telemetry::{
    write_chrome_trace, write_jsonl, FlightRecorder, MetricsRegistry, PipelineTimelineSummary,
};
use pipemare::theory::{delay_slots, gpipe_bubble_fraction};

fn main() {
    let out = std::env::var_os("PIPEMARE_EXPERIMENTS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"));
    let (p, n, minibatches, rows) = (4usize, 4usize, 6usize, 16usize);
    let dataset = SyntheticImages::cifar_like(64, 16, 3).generate();
    let model = Mlp::new(&[3 * 16 * 16, 128, 768, 128, 10]);
    let sgd = OptimizerKind::Sgd { weight_decay: 0.0 };
    let data: Vec<ImageBatch> = (0..minibatches * n)
        .map(|m| {
            let indices: Vec<usize> = (m * rows..(m + 1) * rows).map(|i| i % 64).collect();
            let (x, y) = dataset.train_batch(&indices);
            ImageBatch { x, y }
        })
        .collect();
    let micro_weights = vec![1.0 / n as f32; n];

    println!("Tracing the threaded executor: P = {p} compute stages, N = {n} microbatches");
    for method in [Method::GPipe, Method::PipeMare] {
        let lr = Box::new(ConstantLr(0.02));
        let cfg = match method {
            Method::GPipe => TrainConfig::gpipe(p, n, sgd, lr),
            _ => TrainConfig::pipemare(p, n, sgd, lr, T1Rescheduler::new(20), 0.135),
        };
        let mut stages = ChainStage::for_run(&model, &cfg, 7, &data, &micro_weights)
            .expect("one MLP layer per SGD stage");
        let rec = FlightRecorder::for_pipeline(p);
        let plan = PipelinePlan::for_method(method, p, n, minibatches);
        let report = run_pipeline(&plan, &mut stages, &rec, &ActivationLedger::new(p, 1));
        let events = rec.events();
        let summary = PipelineTimelineSummary::from_events(&events);
        let name = method.name().to_lowercase();

        let trace_path = out.join(format!("trace_{name}.trace.json"));
        let jsonl_path = out.join(format!("trace_{name}.jsonl"));
        write_chrome_trace(&events, p as u32, &trace_path).expect("write chrome trace");
        write_jsonl(&events, &jsonl_path).expect("write jsonl");

        let losses = stages[p - 1].losses();
        println!(
            "\n{}: {:.1} microbatches/s, bubble fraction {:.3} (nominal GPipe {:.3}), \
             loss {:.3} -> {:.3}",
            method.name(),
            report.throughput,
            summary.bubble_fraction,
            gpipe_bubble_fraction(p, n),
            losses[0],
            losses[minibatches - 1],
        );
        for st in &summary.stages {
            println!(
                "  stage {}: utilization {:.2}, wait {:>6} us, measured delay {:.1} slots (nominal {})",
                st.stage,
                st.utilization,
                st.wait_us,
                st.measured_delay_slots,
                delay_slots(p, st.stage as usize),
            );
        }
        println!("  wrote {} and {}", trace_path.display(), jsonl_path.display());
    }

    // A short PipeMare training run with metrics attached.
    println!("\nTraining the MLP under PipeMare with metrics attached");
    let cfg =
        TrainConfig::pipemare(4, 2, sgd, Box::new(ConstantLr(0.02)), T1Rescheduler::new(20), 0.135);
    let registry = MetricsRegistry::new();
    let metrics = TrainerMetrics::register(&registry);
    let history = run(
        &model,
        &dataset,
        cfg,
        RunSpec {
            epochs: 3,
            minibatch: 16,
            warmup_epochs: 1,
            eval_n: 16,
            seed: 7,
            metrics: Some(metrics),
            ..RunSpec::default()
        },
    )
    .expect("every minibatch fills N microbatches");
    let snapshot = registry.snapshot();
    print!("{}", snapshot.to_text());
    let metrics_path = out.join("trace_pipeline_metrics.json");
    std::fs::create_dir_all(&out).expect("create output dir");
    std::fs::write(&metrics_path, snapshot.to_json().to_pretty()).expect("write metrics");
    println!(
        "final train loss {:.3}, final accuracy {:.1}%; wrote {}",
        history.epochs.last().map_or(f32::NAN, |e| e.train_loss),
        history.best_metric(),
        metrics_path.display()
    );
}
