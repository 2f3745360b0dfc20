//! Training health monitor demo: theory-backed stability margins,
//! anomaly detection, snapshot-on-anomaly, and run reports.
//!
//! Two runs of the same pipelined linear-regression problem, built so
//! the MSE Hessian is exactly `diag(λ·I, 2)` and every stage's online
//! curvature estimate λ̂ lands on the true λ:
//!
//! * **Run A** (naive async) sets the step size 30% above the Lemma 1
//!   bound for the deepest stage (τ₀ = 2(P−1)+1). The monitor's
//!   `alpha_margin` for stage 0 drops below 1 and raises a warn event
//!   hundreds of steps *before* the loss blows up; the trainer writes a
//!   resumable snapshot at the first warn and a divergence event when
//!   the recurrence finally overflows.
//! * **Run B** (PipeMare T1 + T2) trains the same problem well inside
//!   the bound: every margin — including the T2-corrected one — stays
//!   above 1 and the report comes back clean.
//!
//! Both runs also feed a threaded-executor trace into the monitor so
//! the measured per-stage `tau_fwd` histograms and the pipeline
//! timeline land in the reports, written as `*.report.{json,txt}` under
//! `PIPEMARE_EXPERIMENTS_DIR` (default `target/experiments`).
//!
//! ```text
//! cargo run --release --example health_monitor
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pipemare::core::{run_regression_training, HealthHook, TrainConfig};
use pipemare::data::isotropic_regression;
use pipemare::nn::LinearRegression;
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{run_pipeline, ActivationLedger, Method, PipelinePlan, Sleep};
use pipemare::telemetry::{
    default_rules, AlertEngine, FlightRecorder, HealthConfig, HealthEventKind, HealthMonitor,
    JournalConfig, JournalWriter, LiveStore, MetricsRegistry, PipelineTimelineSummary, Severity,
};
use pipemare::tensor::{StoragePrecision, BF16_REL_EPS};
use pipemare::theory::lemma1_max_alpha_frac;

/// Measured slot delays + timeline from the threaded executor, fed to
/// the monitor's `pipeline.stage{i}.tau_fwd` histograms. The rings hold
/// the whole 24-microbatch trace for the report; the flight_recorder
/// example shows them as a black box that keeps only the latest events.
fn measured_timeline(p: usize, monitor: &HealthMonitor) -> PipelineTimelineSummary {
    let recorder = FlightRecorder::for_pipeline(p);
    let plan = PipelinePlan::for_method(Method::PipeMare, p, 4, 6);
    let mut work = vec![Sleep(Duration::from_micros(500)); p];
    run_pipeline(&plan, &mut work, &recorder, &ActivationLedger::new(p, 1));
    let events = recorder.events();
    monitor.ingest_events(&events);
    PipelineTimelineSummary::from_events(&events)
}

fn main() {
    let out = std::env::var_os("PIPEMARE_EXPERIMENTS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"));
    let (p, d, lambda) = (4usize, 12usize, 8.0f64);
    let ds = isotropic_regression(d, lambda as f32);
    let model = LinearRegression::new(d);
    let sgd = OptimizerKind::Sgd { weight_decay: 0.0 };
    // N = 1 microbatch: the deepest stage reads forward weights
    // τ₀ = 2(P−1)+1 optimizer steps stale.
    let tau0 = (2 * (p - 1) + 1) as f64;
    let bound = lemma1_max_alpha_frac(lambda, tau0);
    println!("isotropic regression: λ = {lambda}, P = {p}, N = 1 → stage-0 delay τ = {tau0}");
    println!("Lemma 1 step-size bound for stage 0: α* = {bound:.5}");

    // --- Run A: naive async at α = 1.3 α* — stage 0 is doomed, the
    // shallower stages (τ = 5, 3, 1) are still inside their bounds.
    let alpha_bad = (1.3 * bound) as f32;
    println!("\n=== run A: naive async at α = 1.3 α* = {alpha_bad:.5} ===");
    let registry_a = Arc::new(MetricsRegistry::new());
    let monitor_a = Arc::new(HealthMonitor::with_registry(HealthConfig::default(), p, &registry_a));
    let hook = HealthHook::new(Arc::clone(&monitor_a))
        .snapshot_on(Severity::Warn, out.join("health_snapshots"));
    let cfg = TrainConfig::naive_async(p, 1, sgd, Box::new(ConstantLr(alpha_bad)));
    let (losses, diverged) = run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook))
        .expect("the dataset fills N microbatches");
    assert!(diverged, "run A should diverge (it is 30% above the Lemma 1 bound)");

    let events = monitor_a.events();
    let breach = events
        .iter()
        .find(|e| e.kind == HealthEventKind::MarginBreach)
        .expect("stage-0 margin breach");
    let diverge =
        events.iter().find(|e| e.kind == HealthEventKind::Divergence).expect("divergence event");
    println!(
        "margin breach on stage {} at step {} — {} steps of warning before divergence at step {}",
        breach.stage.map(|s| s.to_string()).unwrap_or_default(),
        breach.step,
        diverge.step - breach.step,
        diverge.step,
    );
    println!("({} steps trained before the loss went non-finite)", losses.len());

    let timeline_a = measured_timeline(p, &monitor_a);
    let report_a = monitor_a
        .report("naive-async @ 1.3x Lemma-1 bound")
        .with_metrics(&registry_a.snapshot())
        .with_timeline(&timeline_a);
    println!("\n{}", report_a.to_text());
    let (json_a, text_a) = report_a.save(&out, "health_naive_async").expect("write run A report");
    println!("wrote {} and {}", json_a.display(), text_a.display());

    // --- The live alert plane over run A's registry ------------------
    // The monitor left stage 0's `health.stage0.alpha_margin` gauge
    // below 1.0; one live-store sample through the default alert pack
    // must fire the critical α-margin floor rule. The sample is also
    // journaled so `pm query alerts` re-derives the same firing from
    // disk after the process is gone.
    let live = Arc::new(LiveStore::new("train-a", p).with_registry(Arc::clone(&registry_a)));
    let engine = Arc::new(AlertEngine::new(default_rules()));
    live.attach_alerts(Arc::clone(&engine));
    let journal_dir = out.join("health_journal");
    let mut journal = JournalWriter::create(&journal_dir, "train-a", p, JournalConfig::default())
        .expect("journal opens");
    live.sample();
    journal.append(&live.latest().expect("one sample")).expect("journal append");
    let active = engine.active();
    assert!(
        active.iter().any(|a| a.rule == "alpha_margin_floor" && a.label == "stage0"),
        "run A's margin collapse must fire the alpha_margin_floor alert (active: {:?})",
        active.iter().map(|a| format!("{}[{}]", a.rule, a.label)).collect::<Vec<_>>(),
    );
    for a in &active {
        println!("ALERT {} {} [{}]   value {:.4}", a.severity.name(), a.rule, a.label, a.value);
    }
    println!(
        "journal -> {}   (replay with: pm query alerts {})",
        journal_dir.display(),
        journal_dir.display()
    );

    // --- Run B: PipeMare T1 + T2 at α = 0.3 α* — same problem, same
    // pipeline shape, but inside the stability envelope.
    let alpha_good = (0.3 * bound) as f32;
    println!("\n=== run B: PipeMare T1+T2 at α = 0.3 α* = {alpha_good:.5} ===");
    let registry_b = MetricsRegistry::new();
    let monitor_b = Arc::new(HealthMonitor::with_registry(HealthConfig::default(), p, &registry_b));
    let hook = HealthHook::new(Arc::clone(&monitor_b))
        .snapshot_on(Severity::Warn, out.join("health_snapshots"))
        .halt_on(Severity::Critical);
    let cfg = TrainConfig::pipemare(
        p,
        1,
        sgd,
        Box::new(ConstantLr(alpha_good)),
        T1Rescheduler::new(100),
        0.135,
    );
    let (losses, diverged) = run_regression_training(&model, &ds, cfg, 300, 7, Some(hook))
        .expect("the dataset fills N microbatches");
    assert!(!diverged, "run B must not diverge");
    assert_eq!(monitor_b.anomaly_count(), 0, "run B must be anomaly-free");
    println!(
        "trained {} steps, loss {:.3e} → {:.3e}, zero anomalies",
        losses.len(),
        losses.first().copied().unwrap_or(f32::NAN),
        losses.last().copied().unwrap_or(f32::NAN),
    );

    let timeline_b = measured_timeline(p, &monitor_b);
    let report_b = monitor_b
        .report("PipeMare T1+T2 @ 0.3x Lemma-1 bound")
        .with_metrics(&registry_b.snapshot())
        .with_timeline(&timeline_b);
    assert_eq!(report_b.verdict(), "healthy");
    println!("\n{}", report_b.to_text());
    let (json_b, text_b) = report_b.save(&out, "health_pipemare").expect("write run B report");
    println!("wrote {} and {}", json_b.display(), text_b.display());

    // --- Run C: the same stable configuration, but the weight-version
    // history is stored in bf16 and the monitor is told so: the λ̂
    // estimator sheds the worst-case storage rounding 2·ε·‖w‖ from its
    // secant denominators (see `HealthConfig::with_quant_eps`), so
    // quantization noise cannot fabricate curvature — the run must stay
    // inside the same margins as the f32 baseline.
    println!("\n=== run C: PipeMare T1+T2 at α = 0.3 α*, bf16 weight history ===");
    let registry_c = MetricsRegistry::new();
    let monitor_c = Arc::new(HealthMonitor::with_registry(
        HealthConfig::default().with_quant_eps(BF16_REL_EPS as f64),
        p,
        &registry_c,
    ));
    let hook = HealthHook::new(Arc::clone(&monitor_c))
        .snapshot_on(Severity::Warn, out.join("health_snapshots"))
        .halt_on(Severity::Critical);
    let mut cfg = TrainConfig::pipemare(
        p,
        1,
        sgd,
        Box::new(ConstantLr(alpha_good)),
        T1Rescheduler::new(100),
        0.135,
    );
    cfg.weight_storage = StoragePrecision::Bf16;
    let (losses, diverged) = run_regression_training(&model, &ds, cfg, 300, 7, Some(hook))
        .expect("the dataset fills N microbatches");
    assert!(!diverged, "run C must not diverge under bf16 storage");
    assert_eq!(monitor_c.anomaly_count(), 0, "run C must be anomaly-free");
    println!(
        "trained {} steps with bf16 weight history, loss {:.3e} → {:.3e}, zero anomalies",
        losses.len(),
        losses.first().copied().unwrap_or(f32::NAN),
        losses.last().copied().unwrap_or(f32::NAN),
    );
    let report_c = monitor_c
        .report("PipeMare T1+T2 @ 0.3x Lemma-1 bound, bf16 weight history")
        .with_metrics(&registry_c.snapshot());
    assert_eq!(report_c.verdict(), "healthy");
    println!("\n{}", report_c.to_text());
    let (json_c, text_c) = report_c.save(&out, "health_pipemare_bf16").expect("write run C report");
    println!("wrote {} and {}", json_c.display(), text_c.display());
}
