//! Training health monitor demo: theory-backed stability margins,
//! alerts, snapshot-on-anomaly, and alert logs.
//!
//! Three runs of the same pipelined linear-regression problem, built so
//! the MSE Hessian is exactly `diag(λ·I, 2)` and every stage's online
//! curvature estimate λ̂ lands on the true λ:
//!
//! * **Run A** (naive async) sets the step size 30% above the Lemma 1
//!   bound for the deepest stage (τ₀ = 2(P−1)+1). The monitor's
//!   `alpha_margin` for stage 0 drops below 1 and fires the warn rule
//!   `margin_breach` hundreds of steps *before* the loss blows up; the
//!   trainer writes a resumable snapshot at that firing, and the
//!   critical `nonfinite` rule fires when the recurrence finally
//!   overflows.
//! * **Runs B and C** (PipeMare T1 + T2, f32 and bf16 weight history)
//!   train the same problem well inside the bound: every margin —
//!   including the T2-corrected one — stays above 1 and nothing fires.
//!
//! Each run's alert log is written under `PIPEMARE_EXPERIMENTS_DIR`
//! (default `target/experiments`) as `health_*.alerts.jsonl`, the
//! `AlertFiring` / `AlertResolved` instants in the one JSONL trace
//! format, and read back into the text export `health_*.alerts.txt`.
//!
//! ```text
//! cargo run --release --example health_monitor
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pipemare::core::{run_regression_training, HealthHook, TrainConfig};
use pipemare::data::isotropic_regression;
use pipemare::nn::LinearRegression;
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::telemetry::{
    default_rules, read_jsonl, write_jsonl, AlertEngine, EventSource, FlightRecorder, HealthConfig,
    HealthMonitor, JournalConfig, JournalWriter, LiveStore, MetricValue, MetricsRegistry, Severity,
    SpanKind,
};
use pipemare::tensor::{StoragePrecision, BF16_REL_EPS};
use pipemare::theory::lemma1_max_alpha_frac;

/// A hook's rules and alert log, kept readable once the hook is handed to
/// a run.
type AlertLog = (Arc<AlertEngine>, Arc<FlightRecorder>);

fn alert_log(hook: &HealthHook) -> AlertLog {
    (Arc::clone(&hook.alerts), Arc::clone(&hook.alert_log))
}

/// Writes a run's alert log as `<name>.alerts.jsonl`, reads it back and
/// writes its text export, one transition a line, as `<name>.alerts.txt`;
/// returns the text.
fn save_alert_log(out: &Path, name: &str, log: &AlertLog) -> String {
    let (alerts, log) = log;
    let jsonl = out.join(format!("{name}.alerts.jsonl"));
    write_jsonl(&log.snapshot_events(), &jsonl).expect("write alert log");
    let mut text = format!("== alert log: {name} ==\n");
    for e in read_jsonl(&jsonl).expect("read alert log") {
        let rule = &alerts.rules()[e.microbatch as usize];
        let state = if e.kind == SpanKind::AlertFiring { "FIRING" } else { "resolved" };
        let severity = rule.severity.name();
        let stage = if rule.name.starts_with("margin") {
            format!(" [stage{}]", e.stage)
        } else {
            String::new()
        };
        text += &format!("step {:>6}  {state:<8} {severity:<8} {}{stage}\n", e.ts_us, rule.name);
    }
    if log.is_empty() {
        text += "(nothing fired)\n";
    }
    std::fs::write(out.join(format!("{name}.alerts.txt")), &text).expect("write alert text");
    text
}

/// The step of the first firing of `rule` in the alert log, with its
/// stage.
fn first_firing(log: &AlertLog, rule: &str) -> Option<(u64, u32)> {
    let (alerts, log) = log;
    let index = alerts.rules().iter().position(|r| r.name == rule)?;
    log.snapshot_events()
        .iter()
        .find(|e| e.kind == SpanKind::AlertFiring && e.microbatch as usize == index)
        .map(|e| (e.ts_us, e.stage))
}

/// Each stage's final λ̂ and margins, from the monitor's gauges.
fn margin_table(monitor: &HealthMonitor) -> String {
    let snap = monitor.registry().snapshot();
    let gauge = |s: usize, name: &str| match snap.get(&format!("health.stage{s}.{name}")) {
        Some(MetricValue::Gauge(g)) => *g,
        _ => f64::NAN,
    };
    let mut out = String::from("stage   lambda_hat   alpha_margin   alpha_margin_t2\n");
    for s in 0..monitor.n_stages() {
        out += &format!(
            "{s:>5}   {:>10.4}   {:>12.3}   {:>15.3}\n",
            gauge(s, "lambda_hat"),
            gauge(s, "alpha_margin"),
            gauge(s, "alpha_margin_t2")
        );
    }
    out
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
    let monitor_a =
        Arc::new(HealthMonitor::with_registry(HealthConfig::default(), p, Arc::clone(&registry_a)));
    let hook = HealthHook::new(Arc::clone(&monitor_a))
        .snapshot_on(Severity::Warn, out.join("health_snapshots"));
    let log_a = alert_log(&hook);
    let cfg = TrainConfig::naive_async(p, 1, sgd, Box::new(ConstantLr(alpha_bad)));
    let (losses, diverged) = run_regression_training(&model, &ds, cfg, 20_000, 7, Some(hook))
        .expect("the dataset fills N microbatches");
    assert!(diverged, "run A should diverge (it is 30% above the Lemma 1 bound)");

    let (breach, stage) = first_firing(&log_a, "margin_breach").expect("stage-0 margin breach");
    assert_eq!(stage, 0, "the breach is stage 0's");
    let (nonfinite, _) = first_firing(&log_a, "nonfinite").expect("a non-finite step");
    println!(
        "margin breach on stage {stage} at step {breach} — {} steps of warning before the first \
         non-finite step {nonfinite}",
        nonfinite - breach,
    );
    println!("diverged at step {} (the last step trained)", losses.len() - 1);
    println!("\n{}", margin_table(&monitor_a));
    println!("{}", save_alert_log(&out, "health_naive_async", &log_a));

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

    // --- Runs B and C: PipeMare T1 + T2 at α = 0.3 α* — same problem,
    // same pipeline shape, but inside the stability envelope. Run C
    // stores the weight-version history in bf16 and tells the monitor
    // so: the λ̂ estimator sheds the worst-case storage rounding 2·ε·‖w‖
    // from its secant denominators (see `HealthConfig::with_quant_eps`),
    // so quantization noise cannot fabricate curvature — the run must
    // stay inside the same margins as the f32 baseline.
    let alpha_good = (0.3 * bound) as f32;
    for (name, storage, health) in [
        ("health_pipemare", StoragePrecision::F32, HealthConfig::default()),
        (
            "health_pipemare_bf16",
            StoragePrecision::Bf16,
            HealthConfig::default().with_quant_eps(BF16_REL_EPS as f64),
        ),
    ] {
        println!(
            "\n=== {name}: PipeMare T1+T2 at α = 0.3 α* = {alpha_good:.5}, {storage:?} weight \
             history ==="
        );
        let monitor = Arc::new(HealthMonitor::new(health, p));
        let hook = HealthHook::new(Arc::clone(&monitor))
            .snapshot_on(Severity::Warn, out.join("health_snapshots"))
            .halt_on(Severity::Critical);
        let log = alert_log(&hook);
        let mut cfg = TrainConfig::pipemare(
            p,
            1,
            sgd,
            Box::new(ConstantLr(alpha_good)),
            T1Rescheduler::new(100),
            0.135,
        );
        cfg.weight_storage = storage;
        let (losses, diverged) = run_regression_training(&model, &ds, cfg, 300, 7, Some(hook))
            .expect("the dataset fills N microbatches");
        assert!(!diverged, "{name} must not diverge");
        assert!(log.1.snapshot_events().is_empty(), "{name} must fire nothing");
        println!(
            "trained {} steps, loss {:.3e} → {:.3e}, nothing fired",
            losses.len(),
            losses.first().copied().unwrap_or(f32::NAN),
            losses.last().copied().unwrap_or(f32::NAN),
        );
        println!("\n{}", margin_table(&monitor));
        println!("{}", save_alert_log(&out, name, &log));
    }
}
