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
use pipemare::telemetry::{HealthConfig, HealthEventKind, HealthMonitor, Severity};
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

#[test]
fn unstable_run_warns_before_divergence_then_snapshot_resumes_bit_identically() {
    let ds = isotropic_regression(D, LAMBDA as f32);
    let model = LinearRegression::new(D);
    let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), P));
    let dir = temp_dir("snap");
    let hook = HealthHook::new(Arc::clone(&monitor)).snapshot_on(Severity::Warn, &dir);
    let cfg = unstable_cfg(Box::new(ConstantLr(alpha_unstable())));
    let (losses, diverged) =
        run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook)).unwrap();
    assert!(diverged, "α = 1.3× the stage-0 bound must diverge");

    // The margin breach (a Warn) must come well before the run is
    // numerically broken, and be attributed to stage 0.
    let events = monitor.events();
    let breach = events
        .iter()
        .find(|e| e.kind == HealthEventKind::MarginBreach)
        .expect("no margin-breach event");
    assert_eq!(breach.stage, Some(0));
    assert_eq!(breach.severity, Severity::Warn);
    // 30% over the bound: the reported margin is 1/1.3 ≈ 0.769.
    assert!((breach.value - 1.0 / 1.3).abs() < 0.02, "margin {}", breach.value);
    let diverge =
        events.iter().find(|e| e.kind == HealthEventKind::Divergence).expect("no divergence event");
    assert!(
        breach.step + 100 < diverge.step,
        "warning at step {} should lead divergence at step {}",
        breach.step,
        diverge.step
    );

    // Report: stage 0 is the (only) offender, everything else healthy.
    let report = monitor.report("unstable");
    assert_eq!(report.verdict(), "critical");
    assert_eq!(report.worst_stage(), Some(0));
    assert!(report.stages[0].min_margin < 1.0);
    assert!(!report.stages[0].healthy(1.0));
    for v in &report.stages[1..] {
        assert!(v.min_margin > 1.0, "stage {} margin {}", v.stage, v.min_margin);
        assert!(v.healthy(1.0), "stage {} should be healthy", v.stage);
    }
    // λ̂ is exact on this problem for the pure-curvature stages.
    for v in &report.stages[..3] {
        assert!((v.lambda_hat - LAMBDA).abs() < 1e-6, "λ̂ = {}", v.lambda_hat);
    }

    // The snapshot-on-anomaly checkpoint resumes bit-identically: replay
    // the rest of the run on a fresh trainer and compare every loss.
    assert_eq!(report.snapshots.len(), 1);
    let (snap_step, snap_path) = &report.snapshots[0];
    assert_eq!(*snap_step, breach.step);
    let state = load_state(std::path::Path::new(snap_path)).expect("read snapshot");
    // state() is taken after the step's history push, so it resumes at
    // the step after the breach.
    assert_eq!(state.step, breach.step + 1);
    let cfg = unstable_cfg(Box::new(ConstantLr(alpha_unstable())));
    let mut trainer = PipelineTrainer::new(&model, cfg, 999); // seed overwritten by restore
    trainer.restore(state).expect("a snapshot of the same configuration");
    let micro = [RegressionBatch { x: ds.x.clone(), y: ds.y.clone() }];
    for (t, &want) in losses.iter().enumerate().skip(breach.step + 1) {
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
    let cfg = unstable_cfg(Box::new(ConstantLr(alpha_unstable())));
    let (losses, diverged) =
        run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook)).unwrap();
    // Halted at the margin breach: no divergence, every loss finite, and
    // the run is orders of magnitude shorter than the blowup horizon.
    assert!(!diverged);
    assert!(losses.iter().all(|l| l.is_finite()));
    let breach_step = monitor
        .events()
        .iter()
        .find(|e| e.kind == HealthEventKind::MarginBreach)
        .expect("margin breach")
        .step;
    assert_eq!(losses.len(), breach_step + 1, "run should stop at the breach step");
    let halt = monitor
        .events()
        .iter()
        .find(|e| e.kind == HealthEventKind::Halt)
        .cloned()
        .expect("halt event");
    assert_eq!(halt.step, breach_step);
}

#[test]
fn stable_t1_t2_run_reports_healthy_margins_everywhere() {
    let ds = isotropic_regression(D, LAMBDA as f32);
    let model = LinearRegression::new(D);
    let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), P));
    let hook = HealthHook::new(Arc::clone(&monitor))
        .snapshot_on(Severity::Warn, temp_dir("stable"))
        .halt_on(Severity::Warn);
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
    let (losses, diverged) = run_regression_training(&model, &ds, cfg, 300, 7, Some(hook)).unwrap();
    assert!(!diverged);
    assert_eq!(losses.len(), 300, "nothing should halt a stable run");
    assert!(
        losses[299] < 1e-6 * losses[0],
        "loss should collapse: {} -> {}",
        losses[0],
        losses[299]
    );

    assert_eq!(monitor.anomaly_count(), 0);
    assert_eq!(monitor.max_severity(), None);
    let report = monitor.report("stable");
    assert_eq!(report.verdict(), "healthy");
    assert!(report.snapshots.is_empty());
    for v in &report.stages {
        // Margins were actually computed (finite) and stayed ≥ 1 —
        // including the T2-corrected variant, which is live because
        // t2_decay is on.
        assert!(v.min_margin.is_finite(), "stage {} never produced a margin", v.stage);
        assert!(v.min_margin >= 1.0, "stage {} margin {}", v.stage, v.min_margin);
        assert!(v.min_margin_t2.is_finite(), "stage {} has no T2 margin", v.stage);
        assert!(v.min_margin_t2 >= 1.0, "stage {} T2 margin {}", v.stage, v.min_margin_t2);
        assert!(v.healthy(1.0));
    }
    // The T1-rescheduled effective step size is below the base LR, so
    // the stage-0 margin must beat the untouched 1/0.3 only after T1's
    // ramp finishes; the minimum over the run is still ≥ 10/3 · ~1.
    assert!(report.stages[0].min_margin >= 3.0, "{}", report.stages[0].min_margin);
}
