//! Trainer-side health wiring: the alarms, snapshot-on-anomaly and halt
//! policy.
//!
//! The margin math lives in `pipemare_telemetry::health` and every alarm
//! in `pipemare_telemetry::alert`; this module is the glue that feeds
//! both once per step and decides what the *trainer* does when a rule
//! fires — write a resumable v2 checkpoint, dump the black box, keep
//! going, or stop the run.

use std::path::PathBuf;
use std::sync::Arc;

use pipemare_telemetry::{
    training_rules, AlertEngine, AlertTransition, Counter, FlightRecorder, Gauge, HealthMonitor,
    LiveSample, Severity,
};

/// Transitions one alert log holds before its ring overwrites the oldest.
const ALERT_LOG_CAPACITY: usize = 4096;

/// What the trainer does when an alert at or above
/// [`HealthHook::halt_severity`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyPolicy {
    /// Keep training; alerts are logged but never stop the run.
    Continue,
    /// Latch a halt: subsequent `train_minibatch` calls become no-ops
    /// (like a diverged run) and
    /// [`crate::PipelineTrainer::health_halted`] reports `true` so
    /// runners can break out of their epoch loops.
    Halt,
}

/// Attaches a [`HealthMonitor`] and the [`training_rules`] to a
/// [`crate::PipelineTrainer`] together with its anomaly response policy.
///
/// Each optimizer step the trainer feeds the monitor one
/// [`pipemare_telemetry::StageObservation`] per stage, sets the
/// `trainer.loss`, `trainer.grad_norm` and `trainer.nonfinite_steps`
/// instruments in the monitor's registry, and evaluates
/// [`HealthHook::alerts`] on one sample of that registry stamped with the
/// step index, so every alarm is step-deterministic. When a rule at
/// [`HealthHook::snapshot_severity`] or worse fires for the first time,
/// the trainer writes a full [`crate::TrainerState`] checkpoint,
/// `anomaly_step{t+1}.ckpt`, into [`HealthHook::snapshot_dir`]
/// (resumable bit-identically, including the anomaly that triggered it).
/// When one reaches [`HealthHook::halt_severity`] under
/// [`AnomalyPolicy::Halt`], the trainer latches a halt.
pub struct HealthHook {
    /// The shared monitor; keep your own `Arc` clone to read its gauges
    /// after the run.
    pub monitor: Arc<HealthMonitor>,
    /// The engine that raises the run's alarms; keep a clone to read
    /// what is still firing after the run.
    pub alerts: Arc<AlertEngine>,
    /// The run's alert log: every transition of [`HealthHook::alerts`]
    /// as an `AlertFiring` / `AlertResolved` instant on track 0, with
    /// `ts_us` the optimizer step and `microbatch` the rule's index.
    pub alert_log: Arc<FlightRecorder>,
    /// Halt/continue response to anomalies.
    pub policy: AnomalyPolicy,
    /// Minimum severity that triggers the halt policy.
    pub halt_severity: Severity,
    /// Directory for the snapshot-on-anomaly checkpoint (`None` disables
    /// snapshotting).
    pub snapshot_dir: Option<PathBuf>,
    /// Minimum severity that triggers the one-shot snapshot.
    pub snapshot_severity: Severity,
    /// Whether the one-shot snapshot has been written already.
    pub(crate) snapshot_taken: bool,
    /// Always-on flight recorder whose rings are dumped as a black box
    /// next to the anomaly snapshot (`None` disables dumping). Share
    /// the same `Arc` with the pipeline executor so the dump carries
    /// per-stage compute/wait spans, not just the trainer's step spans.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Directory for the black-box JSONL dump, `blackbox_step{t}.jsonl`.
    pub black_box_dir: Option<PathBuf>,
    /// Trailing window dumped from the rings, in microseconds of
    /// recorder time (events still in flight at `now − window` are
    /// kept). Rings may hold less history than this; the dump is
    /// whatever survives.
    pub black_box_window_us: u64,
    /// Whether the one-shot black-box dump has been written already.
    pub(crate) black_box_taken: bool,
    loss: Arc<Gauge>,
    grad_norm: Arc<Gauge>,
    nonfinite_steps: Arc<Counter>,
}

impl HealthHook {
    /// A hook with the default policy: continue through anomalies, no
    /// snapshotting.
    pub fn new(monitor: Arc<HealthMonitor>) -> Self {
        let registry = Arc::clone(monitor.registry());
        let alerts = Arc::new(AlertEngine::new(training_rules(monitor.config())));
        let alert_log = Arc::new(FlightRecorder::new(1, ALERT_LOG_CAPACITY));
        alerts.attach_recorder(alert_log.clone(), 0);
        HealthHook {
            monitor,
            alerts,
            alert_log,
            policy: AnomalyPolicy::Continue,
            halt_severity: Severity::Critical,
            snapshot_dir: None,
            snapshot_severity: Severity::Warn,
            snapshot_taken: false,
            flight: None,
            black_box_dir: None,
            black_box_window_us: 30_000_000,
            black_box_taken: false,
            loss: registry.gauge("trainer.loss"),
            grad_norm: registry.gauge("trainer.grad_norm"),
            nonfinite_steps: registry.counter("trainer.nonfinite_steps"),
        }
    }

    /// Halts training at the first alert of `severity` or worse.
    pub fn halt_on(mut self, severity: Severity) -> Self {
        self.policy = AnomalyPolicy::Halt;
        self.halt_severity = severity;
        self
    }

    /// Writes a resumable checkpoint into `dir` at the first alert of
    /// `severity` or worse (one snapshot per run).
    pub fn snapshot_on(mut self, severity: Severity, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self.snapshot_severity = severity;
        self
    }

    /// Dumps the flight recorder's rings into `dir` as a JSONL black box
    /// the first time an alert reaches [`HealthHook::snapshot_severity`]
    /// (one dump per run, same gate as the snapshot). The trainer also
    /// starts recording its optimizer-step spans into `flight`, so even
    /// a trainer-only run leaves a timeline; to capture per-stage
    /// pipeline spans, run the executor with the same recorder.
    pub fn black_box_on(mut self, flight: Arc<FlightRecorder>, dir: impl Into<PathBuf>) -> Self {
        self.flight = Some(flight);
        self.black_box_dir = Some(dir.into());
        self
    }

    /// Overrides the trailing window (microseconds) kept in the
    /// black-box dump. Default: 30 seconds.
    pub fn black_box_window_us(mut self, window_us: u64) -> Self {
        self.black_box_window_us = window_us;
        self
    }

    /// Sets step `t`'s trainer instruments and evaluates the rules on one
    /// sample of the monitor's registry; returns the transitions. A step
    /// counts as non-finite if its loss or gradient norm is NaN or Inf or
    /// it latched divergence.
    pub(crate) fn evaluate(
        &self,
        t: usize,
        loss: f64,
        grad_norm: f64,
        diverged: bool,
    ) -> Vec<AlertTransition> {
        self.loss.set(loss);
        self.grad_norm.set(grad_norm);
        if !loss.is_finite() || !grad_norm.is_finite() || diverged {
            self.nonfinite_steps.inc();
        }
        self.alerts.evaluate(&LiveSample {
            seq: t as u64 + 1,
            ts_us: t as u64,
            window_us: 0,
            stages: Vec::new(),
            metrics: self.monitor.registry().snapshot(),
            sample_cost_us: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_telemetry::HealthConfig;

    #[test]
    fn builder_sets_policy_and_snapshot() {
        let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), 2));
        let hook = HealthHook::new(Arc::clone(&monitor));
        assert_eq!(hook.policy, AnomalyPolicy::Continue);
        assert!(hook.snapshot_dir.is_none());
        let hook = hook.halt_on(Severity::Warn).snapshot_on(Severity::Critical, "/tmp/x");
        assert_eq!(hook.policy, AnomalyPolicy::Halt);
        assert_eq!(hook.halt_severity, Severity::Warn);
        assert_eq!(hook.snapshot_severity, Severity::Critical);
        assert_eq!(hook.snapshot_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert!(!hook.snapshot_taken);
    }

    #[test]
    fn builder_wires_black_box() {
        let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), 2));
        let hook = HealthHook::new(monitor);
        assert!(hook.flight.is_none());
        assert!(!hook.black_box_taken);
        let flight = Arc::new(FlightRecorder::for_pipeline(2));
        let hook = hook.black_box_on(Arc::clone(&flight), "/tmp/bb").black_box_window_us(5_000_000);
        assert!(hook.flight.is_some());
        assert_eq!(hook.black_box_dir.as_deref(), Some(std::path::Path::new("/tmp/bb")));
        assert_eq!(hook.black_box_window_us, 5_000_000);
    }

    #[test]
    fn nonfinite_steps_fire_once_and_stay_firing() {
        let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), 1));
        let hook = HealthHook::new(monitor);
        assert!(hook.evaluate(0, 1.0, 1.0, false).is_empty());
        let t = hook.evaluate(1, f64::INFINITY, 1.0, false);
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].rule.as_str(), t[0].severity, t[0].ts_us),
            ("nonfinite", Severity::Critical, 1)
        );
        assert!(hook.evaluate(2, 1.0, f64::NAN, true).is_empty(), "a counter never resolves");
        let log = pipemare_telemetry::EventSource::snapshot_events(&*hook.alert_log);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].ts_us, 1);
    }
}
