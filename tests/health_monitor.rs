//! Integration tests for the training health monitor on a problem with
//! a known Hessian: the monitor's online margins must agree with the
//! Lemma 1 theory, warn before divergence, snapshot resumably, and stay
//! silent on a run that theory says is stable.
//!
//! The dataset is [`isotropic_regression`] (MSE Hessian exactly
//! `diag(λ·I₁₂, 2)`), trained at P = 4, N = 1, so the nominal forward
//! delays are τ = {7, 5, 3, 1} and the per-stage curvature estimates λ̂
//! land on the true λ = 8 for stages 0–2 (stage 3 holds the bias and
//! mixes in curvature 2). A step size 30% above the Lemma 1 bound for
//! τ = 7 destabilizes exactly stage 0.

use std::sync::Arc;

use pipemare::core::{
    load_state, run_regression_training, HealthHook, PipelineTrainer, TrainConfig,
};
use pipemare::data::isotropic_regression;
use pipemare::nn::{LinearRegression, RegressionBatch};
use pipemare::optim::{ConstantLr, LrSchedule, OptimizerKind, T1Rescheduler};
use pipemare::telemetry::{
    AlertEngine, EventSource, FlightRecorder, HealthConfig, HealthMonitor, MetricValue, Severity,
    SpanKind,
};
use pipemare::theory::lemma1_max_alpha_frac;

const P: usize = 4;
const D: usize = 12;
const LAMBDA: f64 = 8.0;
/// τ for stage 0 at N = 1: 2(P−1)+1.
const TAU0: f64 = 7.0;

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

fn unstable_cfg(schedule: Box<dyn LrSchedule>) -> TrainConfig {
    TrainConfig::naive_async(P, 1, sgd(), schedule)
}

/// The step size used by the unstable runs: 30% above the Lemma 1 bound
/// for stage 0 (τ = 7) but still inside the bounds for stages 1–3
/// (τ = 5, 3, 1 — the τ = 5 bound is 1.36× the τ = 7 bound).
fn alpha_unstable() -> f32 {
    (1.3 * lemma1_max_alpha_frac(LAMBDA, TAU0)) as f32
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pm_health_{name}_{}", std::process::id()))
}

/// A hook's engine and alert log, kept readable once the hook is handed
/// to a run.
struct View {
    alerts: Arc<AlertEngine>,
    log: Arc<FlightRecorder>,
}

fn view(hook: &HealthHook) -> View {
    View { alerts: Arc::clone(&hook.alerts), log: Arc::clone(&hook.alert_log) }
}

/// Every firing of `rule` in the alert log, as (step, stage).
fn firings(view: &View, rule: &str) -> Vec<(usize, u32)> {
    let index = view.alerts.rules().iter().position(|r| r.name == rule).expect("a training rule");
    view.log
        .snapshot_events()
        .iter()
        .filter(|e| e.kind == SpanKind::AlertFiring && e.microbatch as usize == index)
        .map(|e| (e.ts_us as usize, e.stage))
        .collect()
}

fn gauge(monitor: &HealthMonitor, name: &str) -> f64 {
    match monitor.registry().snapshot().get(name) {
        Some(MetricValue::Gauge(g)) => *g,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn unstable_run_warns_before_divergence_then_snapshot_resumes_bit_identically() {
    let ds = isotropic_regression(D, LAMBDA as f32);
    let model = LinearRegression::new(D);
    let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), P));
    let dir = temp_dir("snap");
    let hook = HealthHook::new(Arc::clone(&monitor)).snapshot_on(Severity::Warn, &dir);
    let view = view(&hook);
    let cfg = unstable_cfg(Box::new(ConstantLr(alpha_unstable())));
    let (losses, diverged) =
        run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook)).unwrap();
    assert!(diverged, "α = 1.3× the stage-0 bound must diverge");

    // The margin breach (a Warn) must come well before the run is
    // numerically broken, and be attributed to stage 0 alone.
    let breaches = firings(&view, "margin_breach");
    assert_eq!(breaches.len(), 1, "{breaches:?}");
    let (breach_step, stage) = breaches[0];
    assert_eq!(stage, 0);
    let rule = view.alerts.rules().iter().find(|r| r.name == "margin_breach").unwrap();
    assert_eq!(rule.severity, Severity::Warn);
    // Still firing at the end, at the margin 30% over the bound gives:
    // 1/1.3 ≈ 0.769.
    let active = view.alerts.active();
    let firing = active.iter().find(|a| a.rule == "margin_breach").expect("still firing");
    assert_eq!((firing.label.as_str(), firing.since_ts_us), ("stage0", breach_step as u64));
    assert!((firing.value - 1.0 / 1.3).abs() < 0.02, "margin {}", firing.value);
    let nonfinite = firings(&view, "nonfinite");
    assert_eq!(nonfinite.len(), 1, "{nonfinite:?}");
    let diverge_step = losses.len() - 1;
    assert!(
        breach_step + 100 < nonfinite[0].0 && nonfinite[0].0 <= diverge_step,
        "warning at step {breach_step} should lead the first non-finite step {} and the \
         divergence at step {diverge_step}",
        nonfinite[0].0
    );

    // Stage 0 is the only offender: every other stage ends inside its
    // bound and never breached it.
    for s in 1..P {
        let margin = gauge(&monitor, &format!("health.stage{s}.alpha_margin"));
        assert!(margin > 1.0, "stage {s} margin {margin}");
    }
    // λ̂ is exact on this problem for the pure-curvature stages.
    for s in 0..3 {
        let lambda = gauge(&monitor, &format!("health.stage{s}.lambda_hat"));
        assert!((lambda - LAMBDA).abs() < 1e-6, "λ̂ = {lambda}");
    }

    // The snapshot-on-anomaly checkpoint resumes bit-identically: replay
    // the rest of the run on a fresh trainer and compare every loss.
    // state() is taken after the step's history push, so it resumes at
    // the step after the breach.
    let snap_path = dir.join(format!("anomaly_step{}.ckpt", breach_step + 1));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one snapshot per run");
    let state = load_state(&snap_path).expect("read snapshot");
    assert_eq!(state.step, breach_step + 1);
    let cfg = unstable_cfg(Box::new(ConstantLr(alpha_unstable())));
    let mut trainer = PipelineTrainer::new(&model, cfg, 999); // seed overwritten by restore
    trainer.restore(state).expect("a snapshot of the same configuration");
    let micro = [RegressionBatch { x: ds.x.clone(), y: ds.y.clone() }];
    for (t, &want) in losses.iter().enumerate().skip(breach_step + 1) {
        let stats = trainer.train_minibatch(&micro, &[1.0]);
        assert_eq!(stats.step, t);
        assert_eq!(
            stats.loss.to_bits(),
            want.to_bits(),
            "resumed loss diverged from original at step {t}: {} vs {want}",
            stats.loss
        );
    }
    assert!(trainer.diverged(), "resumed run must reproduce the divergence");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn halt_policy_stops_the_run_at_the_first_warning() {
    let ds = isotropic_regression(D, LAMBDA as f32);
    let model = LinearRegression::new(D);
    let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), P));
    let hook = HealthHook::new(Arc::clone(&monitor)).halt_on(Severity::Warn);
    let view = view(&hook);
    let cfg = unstable_cfg(Box::new(ConstantLr(alpha_unstable())));
    let (losses, diverged) =
        run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook)).unwrap();
    // Halted at the margin breach: no divergence, every loss finite, and
    // the run is orders of magnitude shorter than the blowup horizon.
    assert!(!diverged);
    assert!(losses.iter().all(|l| l.is_finite()));
    let breaches = firings(&view, "margin_breach");
    assert_eq!(breaches.len(), 1, "{breaches:?}");
    assert_eq!(breaches[0].1, 0);
    assert_eq!(losses.len(), breaches[0].0 + 1, "run should stop at the breach step");
    let margin = gauge(&monitor, "health.stage0.alpha_margin");
    assert!((margin - 1.0 / 1.3).abs() < 0.02, "margin {margin}");
}

#[test]
fn stable_t1_t2_run_reports_healthy_margins_everywhere() {
    let ds = isotropic_regression(D, LAMBDA as f32);
    let model = LinearRegression::new(D);
    let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), P));
    let hook = HealthHook::new(Arc::clone(&monitor))
        .snapshot_on(Severity::Warn, temp_dir("stable"))
        .halt_on(Severity::Warn);
    let view = view(&hook);
    // Same problem and pipeline shape, but PipeMare T1+T2 at 0.3× the
    // stage-0 bound — inside every stage's envelope.
    let alpha = (0.3 * lemma1_max_alpha_frac(LAMBDA, TAU0)) as f32;
    let cfg = TrainConfig::pipemare(
        P,
        1,
        sgd(),
        Box::new(ConstantLr(alpha)),
        T1Rescheduler::new(100),
        0.135,
    );
    // Step by hand (the runner's loop) to read every step's margins.
    let mut trainer = PipelineTrainer::new(&model, cfg, 7);
    trainer.set_health(hook);
    let micro = [RegressionBatch { x: ds.x.clone(), y: ds.y.clone() }];
    let mut losses = Vec::new();
    let mut min_margin = [[f64::INFINITY; 2]; P];
    for _ in 0..300 {
        let stats = trainer.train_minibatch(&micro, &[1.0]);
        assert!(!stats.diverged && !trainer.health_halted(), "nothing should halt a stable run");
        losses.push(stats.loss);
        for (s, min) in min_margin.iter_mut().enumerate() {
            for (m, name) in min.iter_mut().zip(["alpha_margin", "alpha_margin_t2"]) {
                let margin = gauge(&monitor, &format!("health.stage{s}.{name}"));
                if margin.is_finite() {
                    *m = m.min(margin);
                }
            }
        }
    }
    assert!(
        losses[299] < 1e-6 * losses[0],
        "loss should collapse: {} -> {}",
        losses[0],
        losses[299]
    );

    let log = view.log.snapshot_events();
    assert!(log.is_empty(), "a stable run fires nothing: {log:?}");
    assert!(!temp_dir("stable").exists(), "no snapshot");
    for (s, [margin, margin_t2]) in min_margin.iter().enumerate() {
        // Margins were actually computed (finite) and stayed ≥ 1 —
        // including the T2-corrected variant, which is live because
        // t2_decay is on.
        assert!(margin.is_finite(), "stage {s} never produced a margin");
        assert!(*margin >= 1.0, "stage {s} margin {margin}");
        assert!(margin_t2.is_finite(), "stage {s} has no T2 margin");
        assert!(*margin_t2 >= 1.0, "stage {s} T2 margin {margin_t2}");
    }
    // The T1-rescheduled effective step size is below the base LR, so
    // the stage-0 margin must beat the untouched 1/0.3 only after T1's
    // ramp finishes; the minimum over the run is still ≥ 10/3 · ~1.
    assert!(min_margin[0][0] >= 3.0, "{}", min_margin[0][0]);
}
