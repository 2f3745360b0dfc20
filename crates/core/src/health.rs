//! Trainer-side health wiring: snapshot-on-anomaly and halt policy.
//!
//! The observation math lives in `pipemare_telemetry::health`; this
//! module is the glue that decides what the *trainer* does when the
//! monitor reports something — write a resumable v2 checkpoint, keep
//! going, or stop the run.

use std::path::PathBuf;
use std::sync::Arc;

use pipemare_telemetry::{FlightRecorder, HealthMonitor, Severity};

/// What the trainer does when a health event at or above
/// [`HealthHook::halt_severity`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyPolicy {
    /// Keep training; events are recorded but never stop the run.
    Continue,
    /// Latch a halt: subsequent `train_minibatch` calls become no-ops
    /// (like a diverged run) and
    /// [`crate::PipelineTrainer::health_halted`] reports `true` so
    /// runners can break out of their epoch loops.
    Halt,
}

/// Attaches a [`HealthMonitor`] to a [`crate::PipelineTrainer`] together
/// with its anomaly response policy.
///
/// The trainer feeds the monitor one [`pipemare_telemetry::StepObservation`]
/// per optimizer step. When the resulting events reach
/// [`HealthHook::snapshot_severity`] for the first time, the trainer
/// writes a full [`crate::TrainerState`] checkpoint into
/// [`HealthHook::snapshot_dir`] (resumable bit-identically, including
/// the anomaly that triggered it). When they reach
/// [`HealthHook::halt_severity`] under [`AnomalyPolicy::Halt`], the
/// trainer latches a halt.
pub struct HealthHook {
    /// The shared monitor; keep your own `Arc` clone to build the
    /// [`pipemare_telemetry::RunReport`] after the run.
    pub monitor: Arc<HealthMonitor>,
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
    /// Directory for the black-box JSONL dump.
    pub black_box_dir: Option<PathBuf>,
    /// Trailing window dumped from the rings, in microseconds of
    /// recorder time (events still in flight at `now − window` are
    /// kept). Rings may hold less history than this; the dump is
    /// whatever survives.
    pub black_box_window_us: u64,
    /// Whether the one-shot black-box dump has been written already.
    pub(crate) black_box_taken: bool,
}

impl HealthHook {
    /// A hook with the default policy: continue through anomalies, no
    /// snapshotting.
    pub fn new(monitor: Arc<HealthMonitor>) -> Self {
        HealthHook {
            monitor,
            policy: AnomalyPolicy::Continue,
            halt_severity: Severity::Critical,
            snapshot_dir: None,
            snapshot_severity: Severity::Warn,
            snapshot_taken: false,
            flight: None,
            black_box_dir: None,
            black_box_window_us: 30_000_000,
            black_box_taken: false,
        }
    }

    /// Halts training at the first event of `severity` or worse.
    pub fn halt_on(mut self, severity: Severity) -> Self {
        self.policy = AnomalyPolicy::Halt;
        self.halt_severity = severity;
        self
    }

    /// Writes a resumable checkpoint into `dir` at the first event of
    /// `severity` or worse (one snapshot per run).
    pub fn snapshot_on(mut self, severity: Severity, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self.snapshot_severity = severity;
        self
    }

    /// Whether the one-shot anomaly snapshot has been written.
    pub fn snapshot_taken(&self) -> bool {
        self.snapshot_taken
    }

    /// Dumps the flight recorder's rings into `dir` as a JSONL black box
    /// the first time an event reaches [`HealthHook::snapshot_severity`]
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

    /// Whether the one-shot black-box dump has been written.
    pub fn black_box_taken(&self) -> bool {
        self.black_box_taken
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
        assert!(!hook.snapshot_taken());
    }

    #[test]
    fn builder_wires_black_box() {
        let monitor = Arc::new(HealthMonitor::new(HealthConfig::default(), 2));
        let hook = HealthHook::new(monitor);
        assert!(hook.flight.is_none());
        assert!(!hook.black_box_taken());
        let flight = Arc::new(FlightRecorder::for_pipeline(2));
        let hook = hook.black_box_on(Arc::clone(&flight), "/tmp/bb").black_box_window_us(5_000_000);
        assert!(hook.flight.is_some());
        assert_eq!(hook.black_box_dir.as_deref(), Some(std::path::Path::new("/tmp/bb")));
        assert_eq!(hook.black_box_window_us, 5_000_000);
    }
}
