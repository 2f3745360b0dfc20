//! Always-on flight recording with an anomaly black box.
//!
//! A [`pipemare::telemetry::FlightRecorder`] holds the most recent trace
//! events per track in fixed-size lock-free rings, cheap enough to leave
//! attached to every run. This example shares one recorder between the
//! threaded pipeline executor (per-stage compute/wait spans) and a
//! training run pushed 30% past its Lemma 1 stability bound; when the
//! health hook's margin rule fires, the trainer dumps the recorder's
//! trailing window as a JSONL black box next to the resumable anomaly
//! checkpoint, then summarizes the dump with the `pm trace` analysis
//! engine.
//!
//! ```text
//! cargo run --example flight_recorder
//! # then poke at the dump directly:
//! pm trace summary target/experiments/flight_black_box/blackbox_step*.jsonl
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pipemare::core::{run_regression_training, HealthHook, TrainConfig};
use pipemare::data::isotropic_regression;
use pipemare::nn::LinearRegression;
use pipemare::optim::{ConstantLr, OptimizerKind};
use pipemare::pipeline::{run_pipeline, ActivationLedger, Method, PipelinePlan, Sleep};
use pipemare::telemetry::{
    analyze, read_jsonl, EventSource, FlightRecorder, HealthConfig, HealthMonitor,
    PipelineTimelineSummary, Severity,
};
use pipemare::theory::lemma1_max_alpha_frac;

fn main() {
    let out = std::env::var_os("PIPEMARE_EXPERIMENTS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"));
    let (p, d, lambda) = (4usize, 12usize, 8.0f64);

    // One flight recorder for the whole run: stage tracks 0..p plus the
    // driver/trainer track p. A track's ring is allocated when the track
    // first records, 48 bytes a slot, and stays that size however long
    // the run gets.
    let flight = Arc::new(FlightRecorder::for_pipeline(p));
    println!(
        "flight recorder: {} tracks x {} slots (at most {} KiB, fixed)",
        flight.n_tracks(),
        flight.capacity(),
        flight.n_tracks() * flight.capacity() * 48 / 1024,
    );

    // Phase 1: the threaded executor records per-stage spans into the
    // shared rings.
    let report = run_pipeline(
        &PipelinePlan::for_method(Method::PipeMare, p, 4, 6),
        &mut vec![Sleep(Duration::from_micros(500)); p],
        flight.as_ref(),
        &ActivationLedger::new(p, 1),
    );
    let timeline = PipelineTimelineSummary::from_events(&flight.snapshot_events());
    println!(
        "\nexecutor: {:.1} microbatches/s, bubble {:.3}, {} events in rings ({} overwritten)",
        report.throughput,
        timeline.bubble_fraction,
        flight.len(),
        flight.overwritten(),
    );

    // Phase 2: train past the Lemma 1 bound with the black box armed.
    let tau0 = (2 * (p - 1) + 1) as f64;
    let bound = lemma1_max_alpha_frac(lambda, tau0);
    let alpha_bad = (1.3 * bound) as f32;
    println!("training naive async at α = 1.3 α* = {alpha_bad:.5} — stage 0 is doomed");
    let ds = isotropic_regression(d, lambda as f32);
    let model = LinearRegression::new(d);
    let bb_dir = out.join("flight_black_box");
    // Stale dumps from earlier runs would make the `blackbox_step*`
    // glob in CI ambiguous.
    let _ = std::fs::remove_dir_all(&bb_dir);
    let hook = HealthHook::new(Arc::new(HealthMonitor::new(HealthConfig::default(), p)))
        .snapshot_on(Severity::Warn, &bb_dir)
        .black_box_on(Arc::clone(&flight), &bb_dir)
        .black_box_window_us(120_000_000);
    let cfg = TrainConfig::naive_async(
        p,
        1,
        OptimizerKind::Sgd { weight_decay: 0.0 },
        Box::new(ConstantLr(alpha_bad)),
    );
    let (losses, diverged) = run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook))
        .expect("the dataset fills N microbatches");
    assert!(diverged, "30% above the Lemma 1 bound must diverge");
    println!("diverged after {} steps, as theory predicts", losses.len());

    // Phase 3: post-mortem. The dump is named after the step of the
    // first warning; read it back and run the `pm trace summary` engine
    // over it.
    let dump_path = std::fs::read_dir(&bb_dir)
        .expect("the black-box directory")
        .map(|e| e.expect("a directory entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .expect("anomaly must have dumped a black box");
    let dump_path = dump_path.display().to_string();
    println!("\nblack box: {dump_path}");
    let events = read_jsonl(std::path::Path::new(&dump_path)).expect("read black box");
    assert!(!events.is_empty(), "black box must not be empty");
    println!("\n{}", analyze::summary_text(&events, &dump_path, None));
}
