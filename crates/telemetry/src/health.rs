//! Training health monitor: theory-backed stability margins, anomaly
//! detection, and run reports.
//!
//! PipeMare's contribution is keeping *asynchronous* training stable, so
//! the repo's observability layer should be able to say "this run is
//! about to diverge" before the loss log does. Each optimizer step the
//! [`HealthMonitor`] ingests one [`StepObservation`] — loss, gradient
//! norm, the T2 weight-velocity ‖δ‖ the trainer already maintains, and
//! per-stage step sizes and delays — and maintains three things:
//!
//! 1. **Anomaly detection**: EWMA baselines for loss and gradient norm
//!    with spike, NaN/Inf, and divergence events ([`HealthEvent`] with a
//!    [`Severity`]).
//! 2. **Delay histograms**: measured per-microbatch τ_fwd/τ_recomp slot
//!    delays from executor traces ([`HealthMonitor::ingest_events`]),
//!    published as `pipeline.stage{i}.tau_fwd` / `.tau_recomp`. The
//!    samples come from [`crate::summary`]'s per-stage grouping, so a
//!    histogram's mean is the summary's measured delay for that stage.
//! 3. **Online stability margins**: a curvature estimate λ̂ from secant
//!    differences along the trajectory, published per stage as
//!    `health.stage{i}.alpha_margin = lemma1_max_alpha_frac(λ̂, τ_i) / α_i`
//!    (and the T2-corrected variant via the `char_poly_t2` spectral
//!    radius when discrepancy correction is on). A margin dropping below
//!    1 raises a structured warn event *before* the recurrence has had
//!    time to blow the loss up.
//!
//! The λ̂ estimator is a per-stage secant quotient
//! `λ̂_s ≈ ‖g_t − g_{t−1}‖_s / ‖u_t − u_{t−1}‖_s`, where `g` is the
//! minibatch gradient and `u` the *forward-version* weights the gradient
//! was evaluated at (using the forward view, not the freshly updated
//! weights, keeps the estimate unbiased under delay: both differences
//! are taken at the same staleness). The quotient is EWMA-smoothed and
//! frozen when the trajectory stalls below numerical resolution, where
//! f32 cancellation would turn it into noise.
//!
//! At the end of a run [`HealthMonitor::report`] folds everything into a
//! [`RunReport`] — per-stage verdicts, the anomaly timeline, and
//! optionally a metrics snapshot and a pipeline timeline — serializable
//! as JSON and as human-readable text.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use pipemare_theory::{lemma1_alpha_margin, quantized_secant_denominator, t2_alpha_margin};

use crate::event::TraceEvent;
use crate::json::Value;
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::summary::{PipelineTimelineSummary, StageFold};

/// How bad a health event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Bookkeeping (snapshots taken, halts executed).
    Info,
    /// The run is still producing numbers but theory or baselines say
    /// something is off.
    Warn,
    /// The run is numerically broken (NaN/Inf, divergence).
    Critical,
}

impl Severity {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// What a health event reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HealthEventKind {
    /// The minibatch loss came back NaN or Inf.
    NonFiniteLoss,
    /// The gradient norm came back NaN or Inf.
    NonFiniteGradient,
    /// The loss jumped far above its EWMA baseline.
    LossSpike,
    /// The gradient norm jumped far above its EWMA baseline.
    GradNormSpike,
    /// A per-stage stability margin dropped below threshold.
    MarginBreach,
    /// The trainer latched its divergence flag.
    Divergence,
    /// The anomaly policy halted training.
    Halt,
    /// A snapshot-on-anomaly checkpoint was written.
    Snapshot,
    /// A flight-recorder black-box trace dump was written.
    BlackBoxDump,
}

impl HealthEventKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            HealthEventKind::NonFiniteLoss => "nonfinite_loss",
            HealthEventKind::NonFiniteGradient => "nonfinite_gradient",
            HealthEventKind::LossSpike => "loss_spike",
            HealthEventKind::GradNormSpike => "grad_norm_spike",
            HealthEventKind::MarginBreach => "margin_breach",
            HealthEventKind::Divergence => "divergence",
            HealthEventKind::Halt => "halt",
            HealthEventKind::Snapshot => "snapshot",
            HealthEventKind::BlackBoxDump => "black_box_dump",
        }
    }
}

/// One structured health event.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Optimizer step the event fired at.
    pub step: usize,
    /// Stage the event is attributed to, if any.
    pub stage: Option<usize>,
    /// What happened.
    pub kind: HealthEventKind,
    /// How bad it is.
    pub severity: Severity,
    /// The observed value that triggered the event (margin, loss, ...).
    pub value: f64,
    /// The threshold it was compared against.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
}

impl HealthEvent {
    /// JSON rendering of one event.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::obj()
            .set("step", self.step as u64)
            .set("kind", self.kind.name())
            .set("severity", self.severity.name())
            .set("value", self.value)
            .set("threshold", self.threshold)
            .set("message", self.message.as_str());
        if let Some(s) = self.stage {
            obj = obj.set("stage", s as u64);
        }
        obj
    }
}

/// Tunables of the [`HealthMonitor`].
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// EWMA decay for the loss / gradient-norm baselines.
    pub ewma_beta: f64,
    /// A finite value more than this factor above its baseline is a
    /// spike.
    pub spike_factor: f64,
    /// Steps before baselines are armed and margin breaches may fire
    /// (λ̂ needs a few secants to settle).
    pub warmup_steps: usize,
    /// Margins below this raise [`HealthEventKind::MarginBreach`].
    pub margin_threshold: f64,
    /// Recompute margins every this many observed steps (1 = every
    /// step; the T2 margin additionally caches its bisection).
    pub margin_every: usize,
    /// EWMA decay for the per-stage curvature estimate λ̂.
    pub lambda_beta: f64,
    /// The discrepancy sensitivity Δ is not observable online; the
    /// T2-corrected margin uses `Δ = t2_delta_frac · λ̂`.
    pub t2_delta_frac: f64,
    /// Relative quantization error of the weight storage the λ̂
    /// denominators are read from (0 for exact f32; bf16's
    /// round-to-nearest is `2⁻⁸` — `pipemare_tensor::BF16_REL_EPS`).
    /// The estimator shrinks each secant denominator by the worst-case
    /// storage rounding `2·quant_eps·‖w‖` and widens its noise floor to
    /// at least that granularity, so quantization can inflate λ̂ (the
    /// conservative direction) but never fabricate curvature out of
    /// rounding noise.
    pub quant_eps: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            ewma_beta: 0.9,
            spike_factor: 10.0,
            warmup_steps: 10,
            margin_threshold: 1.0,
            margin_every: 1,
            lambda_beta: 0.9,
            t2_delta_frac: 0.5,
            quant_eps: 0.0,
        }
    }
}

impl HealthConfig {
    /// This config with the λ̂ estimator compensating a weight storage
    /// of relative quantization error `eps` (pass
    /// `pipemare_tensor::BF16_REL_EPS` when the trainer stores its
    /// weight history in bf16).
    pub fn with_quant_eps(mut self, eps: f64) -> Self {
        assert!(eps >= 0.0 && eps.is_finite(), "quant_eps must be finite and ≥ 0");
        self.quant_eps = eps;
        self
    }
}

/// Per-stage slice of one optimizer step, as seen by the trainer.
///
/// Pass NaN for differences that do not exist yet (first step).
#[derive(Clone, Copy, Debug)]
pub struct StageObservation {
    /// ‖g_t‖ over this stage's parameter slice.
    pub grad_norm: f64,
    /// ‖g_t − g_{t−1}‖ over this stage's slice (λ̂ numerator).
    pub grad_diff_norm: f64,
    /// ‖u_t − u_{t−1}‖ over this stage's slice, where `u` are the
    /// forward-version weights the gradient was evaluated at (λ̂
    /// denominator).
    pub fwd_diff_norm: f64,
    /// ‖w‖ over this stage's slice (scales the λ̂ noise floor).
    pub weight_norm: f64,
    /// ‖δ‖ over this stage's slice — the T2 weight-velocity EWMA.
    pub delta_norm: f64,
    /// Effective step size α_{k,i} used this step (base LR × T1 scale).
    pub alpha: f64,
    /// Forward delay in optimizer steps (0 during synchronous warmup).
    pub tau_fwd: f64,
    /// Backward delay in optimizer steps.
    pub tau_bkwd: f64,
    /// T2 decay γ_i; 0 disables the T2-corrected margin.
    pub gamma: f64,
}

/// Everything the monitor sees about one optimizer step.
#[derive(Clone, Debug)]
pub struct StepObservation {
    /// Optimizer step index.
    pub step: usize,
    /// Minibatch loss.
    pub loss: f64,
    /// Whole-model gradient norm.
    pub grad_norm: f64,
    /// Whether the trainer's divergence latch is set.
    pub diverged: bool,
    /// Per-stage slices.
    pub stages: Vec<StageObservation>,
}

/// Cached T2 bisection result (the margin search is ~10³ root finds, so
/// it only reruns when its inputs move by more than 2%).
#[derive(Clone, Copy, Debug)]
struct T2Cache {
    lambda: f64,
    alpha: f64,
    gamma: f64,
    tau_fwd: f64,
    margin: f64,
}

#[derive(Debug)]
struct StageState {
    lambda_hat: f64,
    min_margin: f64,
    min_margin_step: usize,
    min_margin_t2: f64,
    last_margin: f64,
    last_margin_t2: f64,
    last_alpha: f64,
    last_tau_fwd: f64,
    breach_active: bool,
    t2_breach_active: bool,
    anomalies: usize,
    t2_cache: Option<T2Cache>,
}

impl StageState {
    fn new() -> Self {
        StageState {
            lambda_hat: f64::NAN,
            min_margin: f64::INFINITY,
            min_margin_step: 0,
            min_margin_t2: f64::INFINITY,
            last_margin: f64::INFINITY,
            last_margin_t2: f64::INFINITY,
            last_alpha: 0.0,
            last_tau_fwd: 0.0,
            breach_active: false,
            t2_breach_active: false,
            anomalies: 0,
            t2_cache: None,
        }
    }
}

#[derive(Debug)]
struct MonitorInner {
    step: usize,
    observed: usize,
    loss_ewma: f64,
    grad_ewma: f64,
    loss_spike_active: bool,
    grad_spike_active: bool,
    nonfinite_loss_seen: bool,
    nonfinite_grad_seen: bool,
    divergence_seen: bool,
    max_severity: Option<Severity>,
    events: Vec<HealthEvent>,
    snapshots: Vec<(usize, String)>,
    black_boxes: Vec<(usize, String)>,
    stages: Vec<StageState>,
}

struct StageInstruments {
    margin: Arc<Gauge>,
    margin_t2: Arc<Gauge>,
    lambda: Arc<Gauge>,
    delta: Arc<Gauge>,
    tau_fwd: Arc<Histogram>,
    tau_recomp: Arc<Histogram>,
}

/// The training health monitor. All methods take `&self` (state lives
/// behind a mutex), so a trainer and a reporting thread can share it via
/// `Arc`.
pub struct HealthMonitor {
    cfg: HealthConfig,
    inner: Mutex<MonitorInner>,
    instruments: Vec<StageInstruments>,
    anomaly_counter: Option<Arc<Counter>>,
    breach_counter: Option<Arc<Counter>>,
}

impl HealthMonitor {
    /// Creates a monitor for an `n_stages`-deep pipeline with no metrics
    /// registry attached.
    pub fn new(cfg: HealthConfig, n_stages: usize) -> Self {
        Self::build(cfg, n_stages, None)
    }

    /// Creates a monitor that also publishes gauges
    /// (`health.stage{i}.alpha_margin`, `.alpha_margin_t2`,
    /// `.lambda_hat`, `.delta_norm`), counters (`health.anomalies`,
    /// `health.margin_breaches`), and measured delay histograms
    /// (`pipeline.stage{i}.tau_fwd`, `.tau_recomp`, in microbatch slots)
    /// into `registry`.
    pub fn with_registry(cfg: HealthConfig, n_stages: usize, registry: &MetricsRegistry) -> Self {
        Self::build(cfg, n_stages, Some(registry))
    }

    fn build(cfg: HealthConfig, n_stages: usize, registry: Option<&MetricsRegistry>) -> Self {
        assert!(n_stages > 0, "health monitor needs at least one stage");
        assert!(cfg.margin_every > 0, "margin_every must be ≥ 1");
        let instruments = registry
            .map(|reg| {
                // Slot-delay histograms: unit-width buckets covering the
                // deepest nominal delay 2(P−1)+1 with headroom.
                let slot_bounds: Vec<f64> = (1..=2 * n_stages + 4).map(|i| i as f64).collect();
                (0..n_stages)
                    .map(|s| StageInstruments {
                        margin: reg.gauge(&format!("health.stage{s}.alpha_margin")),
                        margin_t2: reg.gauge(&format!("health.stage{s}.alpha_margin_t2")),
                        lambda: reg.gauge(&format!("health.stage{s}.lambda_hat")),
                        delta: reg.gauge(&format!("health.stage{s}.delta_norm")),
                        tau_fwd: reg.histogram(&format!("pipeline.stage{s}.tau_fwd"), &slot_bounds),
                        tau_recomp: reg
                            .histogram(&format!("pipeline.stage{s}.tau_recomp"), &slot_bounds),
                    })
                    .collect()
            })
            .unwrap_or_default();
        HealthMonitor {
            cfg,
            instruments,
            inner: Mutex::new(MonitorInner {
                step: 0,
                observed: 0,
                loss_ewma: f64::NAN,
                grad_ewma: f64::NAN,
                loss_spike_active: false,
                grad_spike_active: false,
                nonfinite_loss_seen: false,
                nonfinite_grad_seen: false,
                divergence_seen: false,
                max_severity: None,
                events: Vec::new(),
                snapshots: Vec::new(),
                black_boxes: Vec::new(),
                stages: (0..n_stages).map(|_| StageState::new()).collect(),
            }),
            anomaly_counter: registry.map(|r| r.counter("health.anomalies")),
            breach_counter: registry.map(|r| r.counter("health.margin_breaches")),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Number of pipeline stages being monitored.
    pub fn n_stages(&self) -> usize {
        self.inner.lock().unwrap().stages.len()
    }

    /// Ingests one optimizer step and returns the events it raised (the
    /// same events are also kept for the final [`RunReport`]).
    pub fn observe(&self, obs: &StepObservation) -> Vec<HealthEvent> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let armed = inner.observed >= self.cfg.warmup_steps;
        inner.step = obs.step;
        inner.observed += 1;
        let mut new_events = Vec::new();

        self.check_global(obs, inner, armed, &mut new_events);

        let do_margins = inner.observed.is_multiple_of(self.cfg.margin_every);
        for (s, so) in obs.stages.iter().enumerate() {
            let Some(st) = inner.stages.get_mut(s) else { break };
            self.observe_stage(s, so, st, obs.step, armed && do_margins, &mut new_events);
        }

        for ev in &new_events {
            self.count(inner, ev);
        }
        inner.events.extend(new_events.iter().cloned());
        new_events
    }

    /// NaN/Inf, divergence, and baseline-spike checks on the whole-run
    /// signals.
    fn check_global(
        &self,
        obs: &StepObservation,
        inner: &mut MonitorInner,
        armed: bool,
        out: &mut Vec<HealthEvent>,
    ) {
        if !obs.loss.is_finite() && !inner.nonfinite_loss_seen {
            inner.nonfinite_loss_seen = true;
            out.push(HealthEvent {
                step: obs.step,
                stage: None,
                kind: HealthEventKind::NonFiniteLoss,
                severity: Severity::Critical,
                value: obs.loss,
                threshold: f64::NAN,
                message: format!("loss is {} at step {}", obs.loss, obs.step),
            });
        }
        if !obs.grad_norm.is_finite() && !inner.nonfinite_grad_seen {
            inner.nonfinite_grad_seen = true;
            out.push(HealthEvent {
                step: obs.step,
                stage: None,
                kind: HealthEventKind::NonFiniteGradient,
                severity: Severity::Critical,
                value: obs.grad_norm,
                threshold: f64::NAN,
                message: format!("gradient norm is {} at step {}", obs.grad_norm, obs.step),
            });
        }
        if obs.diverged && !inner.divergence_seen {
            inner.divergence_seen = true;
            out.push(HealthEvent {
                step: obs.step,
                stage: None,
                kind: HealthEventKind::Divergence,
                severity: Severity::Critical,
                value: obs.loss,
                threshold: f64::NAN,
                message: format!("trainer latched divergence at step {}", obs.step),
            });
        }

        for (value, ewma, spike_active, kind, label) in [
            (
                obs.loss,
                &mut inner.loss_ewma,
                &mut inner.loss_spike_active,
                HealthEventKind::LossSpike,
                "loss",
            ),
            (
                obs.grad_norm,
                &mut inner.grad_ewma,
                &mut inner.grad_spike_active,
                HealthEventKind::GradNormSpike,
                "gradient norm",
            ),
        ] {
            if !value.is_finite() {
                continue;
            }
            let baseline = *ewma;
            let threshold = self.cfg.spike_factor * baseline.max(1e-12);
            if armed && baseline.is_finite() && value > threshold {
                // Hysteresis: one event per excursion, not per step.
                if !*spike_active {
                    *spike_active = true;
                    out.push(HealthEvent {
                        step: obs.step,
                        stage: None,
                        kind,
                        severity: Severity::Warn,
                        value,
                        threshold,
                        message: format!(
                            "{label} {value:.4e} is {:.1}x its EWMA baseline {baseline:.4e} \
                             at step {}",
                            value / baseline.max(1e-300),
                            obs.step
                        ),
                    });
                }
                // A spiking value must not drag the baseline up to meet it.
                continue;
            }
            *spike_active = false;
            *ewma = if baseline.is_finite() {
                self.cfg.ewma_beta * baseline + (1.0 - self.cfg.ewma_beta) * value
            } else {
                value
            };
        }
    }

    /// λ̂ update and stability margins for one stage.
    fn observe_stage(
        &self,
        s: usize,
        so: &StageObservation,
        st: &mut StageState,
        step: usize,
        margins_armed: bool,
        out: &mut Vec<HealthEvent>,
    ) {
        // Secant curvature estimate, frozen when the trajectory moves
        // less than f32 resolution — or the weight storage's quantization
        // granularity — can measure (the quotient of two
        // cancellation-dominated differences is noise, and a noisy λ̂
        // spike would fabricate a margin breach). Under quantized
        // storage the denominator additionally sheds the worst-case
        // rounding 2·ε·‖w‖, so λ̂ errs high (conservative margins), not
        // low.
        let quant = 2.0 * self.cfg.quant_eps * so.weight_norm;
        let noise_floor = (1e-5 * so.weight_norm.max(1e-3)).max(quant);
        if so.grad_diff_norm.is_finite()
            && so.fwd_diff_norm.is_finite()
            && so.fwd_diff_norm > noise_floor
        {
            let raw = so.grad_diff_norm
                / quantized_secant_denominator(
                    so.fwd_diff_norm,
                    so.weight_norm,
                    self.cfg.quant_eps,
                    noise_floor,
                );
            st.lambda_hat = if st.lambda_hat.is_finite() {
                self.cfg.lambda_beta * st.lambda_hat + (1.0 - self.cfg.lambda_beta) * raw
            } else {
                raw
            };
        }
        st.last_alpha = so.alpha;
        st.last_tau_fwd = so.tau_fwd;
        if let Some(inst) = self.instruments.get(s) {
            inst.lambda.set(st.lambda_hat);
            inst.delta.set(so.delta_norm);
        }
        if !margins_armed {
            return;
        }

        let margin = lemma1_alpha_margin(st.lambda_hat, so.tau_fwd, so.alpha);
        st.last_margin = margin;
        if margin.is_finite() && margin < st.min_margin {
            st.min_margin = margin;
            st.min_margin_step = step;
        }
        if let Some(inst) = self.instruments.get(s) {
            inst.margin.set(margin);
        }
        if margin < self.cfg.margin_threshold {
            if !st.breach_active {
                st.breach_active = true;
                st.anomalies += 1;
                out.push(HealthEvent {
                    step,
                    stage: Some(s),
                    kind: HealthEventKind::MarginBreach,
                    severity: Severity::Warn,
                    value: margin,
                    threshold: self.cfg.margin_threshold,
                    message: format!(
                        "stage {s} margin {margin:.3} < {:.2}: Lemma 1 bound for λ̂ = \
                         {:.4e}, τ = {:.2} is below α = {:.4e}",
                        self.cfg.margin_threshold, st.lambda_hat, so.tau_fwd, so.alpha
                    ),
                });
            }
        } else {
            st.breach_active = false;
        }

        // T2-corrected margin, only when discrepancy correction is on.
        if so.gamma <= 0.0 {
            return;
        }
        let margin_t2 = self.t2_margin(st, so);
        st.last_margin_t2 = margin_t2;
        if margin_t2.is_finite() && margin_t2 < st.min_margin_t2 {
            st.min_margin_t2 = margin_t2;
        }
        if let Some(inst) = self.instruments.get(s) {
            inst.margin_t2.set(margin_t2);
        }
        if margin_t2 < self.cfg.margin_threshold {
            if !st.t2_breach_active {
                st.t2_breach_active = true;
                st.anomalies += 1;
                out.push(HealthEvent {
                    step,
                    stage: Some(s),
                    kind: HealthEventKind::MarginBreach,
                    severity: Severity::Warn,
                    value: margin_t2,
                    threshold: self.cfg.margin_threshold,
                    message: format!(
                        "stage {s} T2-corrected margin {margin_t2:.3} < {:.2} (λ̂ = {:.4e}, \
                         Δ = {:.1}·λ̂, τ = {:.2}, γ = {:.3}, α = {:.4e})",
                        self.cfg.margin_threshold,
                        st.lambda_hat,
                        self.cfg.t2_delta_frac,
                        so.tau_fwd,
                        so.gamma,
                        so.alpha
                    ),
                });
            }
        } else {
            st.t2_breach_active = false;
        }
    }

    /// The T2-corrected margin with a 2%-relative input cache (the
    /// underlying bisection is expensive).
    fn t2_margin(&self, st: &mut StageState, so: &StageObservation) -> f64 {
        let close = |a: f64, b: f64| (a - b).abs() <= 0.02 * b.abs().max(1e-300);
        if let Some(c) = st.t2_cache {
            if close(st.lambda_hat, c.lambda)
                && close(so.alpha, c.alpha)
                && so.gamma == c.gamma
                && so.tau_fwd == c.tau_fwd
            {
                return c.margin;
            }
        }
        let margin = t2_alpha_margin(
            st.lambda_hat,
            self.cfg.t2_delta_frac * st.lambda_hat,
            so.tau_fwd,
            so.tau_bkwd,
            so.gamma,
            so.alpha,
        );
        st.t2_cache = Some(T2Cache {
            lambda: st.lambda_hat,
            alpha: so.alpha,
            gamma: so.gamma,
            tau_fwd: so.tau_fwd,
            margin,
        });
        margin
    }

    fn count(&self, inner: &mut MonitorInner, ev: &HealthEvent) {
        if inner.max_severity.is_none_or(|m| ev.severity > m) {
            inner.max_severity = Some(ev.severity);
        }
        if ev.severity >= Severity::Warn {
            if let Some(c) = &self.anomaly_counter {
                c.inc();
            }
        }
        if ev.kind == HealthEventKind::MarginBreach {
            if let Some(c) = &self.breach_counter {
                c.inc();
            }
        }
    }

    /// Records an externally produced event (the trainer's snapshot /
    /// halt bookkeeping).
    pub fn record_event(&self, ev: HealthEvent) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        self.count(inner, &ev);
        if let Some(s) = ev.stage {
            if let Some(st) = inner.stages.get_mut(s) {
                if ev.severity >= Severity::Warn {
                    st.anomalies += 1;
                }
            }
        }
        inner.events.push(ev);
    }

    /// Records that a snapshot-on-anomaly checkpoint was written.
    pub fn record_snapshot(&self, step: usize, path: &str) {
        self.record_event(HealthEvent {
            step,
            stage: None,
            kind: HealthEventKind::Snapshot,
            severity: Severity::Info,
            value: f64::NAN,
            threshold: f64::NAN,
            message: format!("snapshot-on-anomaly checkpoint written to {path}"),
        });
        self.inner.lock().unwrap().snapshots.push((step, path.to_string()));
    }

    /// Records that a flight-recorder black-box trace dump was written
    /// (`events` is the number of trace events it holds).
    pub fn record_black_box(&self, step: usize, path: &str, events: usize) {
        self.record_event(HealthEvent {
            step,
            stage: None,
            kind: HealthEventKind::BlackBoxDump,
            severity: Severity::Info,
            value: events as f64,
            threshold: f64::NAN,
            message: format!("black-box dump ({events} trace events) written to {path}"),
        });
        self.inner.lock().unwrap().black_boxes.push((step, path.to_string()));
    }

    /// Feeds measured per-microbatch delay samples from an executor
    /// trace into the per-stage `tau_fwd` / `tau_recomp` histograms
    /// (units: microbatch slots, comparable to the nominal
    /// `2(P−1−s)+1` and `2(S − s mod S)`).
    pub fn ingest_events(&self, events: &[TraceEvent]) {
        if self.instruments.is_empty() {
            return;
        }
        let fold = StageFold::new(events, 0, |_| true);
        for (inst, st) in self.instruments.iter().zip(&fold.stages) {
            for sample in st.tau_fwd(|_| true) {
                inst.tau_fwd.observe(sample);
            }
            for sample in st.tau_recomp(|_| true) {
                inst.tau_recomp.observe(sample);
            }
        }
    }

    /// All events recorded so far.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// Number of anomalies (events at [`Severity::Warn`] or worse).
    pub fn anomaly_count(&self) -> usize {
        self.inner.lock().unwrap().events.iter().filter(|e| e.severity >= Severity::Warn).count()
    }

    /// Worst severity seen, or `None` for a clean run.
    pub fn max_severity(&self) -> Option<Severity> {
        self.inner.lock().unwrap().max_severity
    }

    /// Folds the monitor's state into a [`RunReport`].
    pub fn report(&self, label: &str) -> RunReport {
        let inner = self.inner.lock().unwrap();
        let stages = inner
            .stages
            .iter()
            .enumerate()
            .map(|(s, st)| StageVerdict {
                stage: s,
                lambda_hat: st.lambda_hat,
                tau_fwd: st.last_tau_fwd,
                alpha: st.last_alpha,
                min_margin: st.min_margin,
                min_margin_step: st.min_margin_step,
                min_margin_t2: st.min_margin_t2,
                anomalies: st.anomalies,
            })
            .collect();
        RunReport {
            label: label.to_string(),
            steps: inner.observed,
            severity: inner.max_severity,
            stages,
            events: inner.events.clone(),
            snapshots: inner.snapshots.clone(),
            black_boxes: inner.black_boxes.clone(),
            metrics: None,
            timeline: None,
        }
    }
}

/// Health verdict for one pipeline stage.
#[derive(Clone, Debug)]
pub struct StageVerdict {
    /// Stage index.
    pub stage: usize,
    /// Final curvature estimate λ̂ (NaN if never estimated).
    pub lambda_hat: f64,
    /// Last observed forward delay in optimizer steps.
    pub tau_fwd: f64,
    /// Last observed effective step size.
    pub alpha: f64,
    /// Smallest Lemma 1 margin seen after warmup (∞ if never finite).
    pub min_margin: f64,
    /// Step at which the minimum margin occurred.
    pub min_margin_step: usize,
    /// Smallest T2-corrected margin seen (∞ when T2 is off).
    pub min_margin_t2: f64,
    /// Anomalies attributed to this stage.
    pub anomalies: usize,
}

impl StageVerdict {
    /// Whether the stage stayed inside its stability envelope with no
    /// anomalies.
    pub fn healthy(&self, threshold: f64) -> bool {
        // min margins are ∞ when never computed and otherwise finite
        // (never NaN), so plain comparisons are safe.
        self.anomalies == 0 && self.min_margin >= threshold && self.min_margin_t2 >= threshold
    }
}

/// End-of-run aggregation: per-stage verdicts, anomaly timeline, and
/// optional metrics / pipeline-timeline attachments.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Run label (e.g. `PipeMare+T1+T2`).
    pub label: String,
    /// Optimizer steps observed.
    pub steps: usize,
    /// Worst severity seen, `None` for a clean run.
    pub severity: Option<Severity>,
    /// Per-stage verdicts.
    pub stages: Vec<StageVerdict>,
    /// Full anomaly/event timeline in order of occurrence.
    pub events: Vec<HealthEvent>,
    /// Snapshot-on-anomaly checkpoints written (`(step, path)`).
    pub snapshots: Vec<(usize, String)>,
    /// Flight-recorder black-box dumps written (`(step, path)`).
    pub black_boxes: Vec<(usize, String)>,
    /// Attached metrics snapshot, if any.
    pub metrics: Option<Value>,
    /// Attached pipeline timeline summary, if any.
    pub timeline: Option<Value>,
}

impl RunReport {
    /// Attaches a metrics snapshot.
    pub fn with_metrics(mut self, snapshot: &MetricsSnapshot) -> Self {
        self.metrics = Some(snapshot.to_json());
        self
    }

    /// Attaches a pipeline timeline summary.
    pub fn with_timeline(mut self, summary: &PipelineTimelineSummary) -> Self {
        self.timeline = Some(summary.to_json());
        self
    }

    /// One-word overall verdict.
    pub fn verdict(&self) -> &'static str {
        match self.severity {
            None | Some(Severity::Info) => "healthy",
            Some(Severity::Warn) => "warned",
            Some(Severity::Critical) => "critical",
        }
    }

    /// The stage with the smallest minimum margin (Lemma 1 or T2),
    /// if any stage ever produced a finite margin.
    pub fn worst_stage(&self) -> Option<usize> {
        self.stages
            .iter()
            .map(|v| (v.stage, v.min_margin.min(v.min_margin_t2)))
            .filter(|(_, m)| m.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s)
    }

    /// Anomalies (events at warn severity or worse).
    pub fn anomaly_count(&self) -> usize {
        self.events.iter().filter(|e| e.severity >= Severity::Warn).count()
    }

    /// JSON rendering.
    pub fn to_json(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|v| {
                Value::obj()
                    .set("stage", v.stage as u64)
                    .set("lambda_hat", v.lambda_hat)
                    .set("tau_fwd", v.tau_fwd)
                    .set("alpha", v.alpha)
                    .set("min_margin", v.min_margin)
                    .set("min_margin_step", v.min_margin_step as u64)
                    .set("min_margin_t2", v.min_margin_t2)
                    .set("anomalies", v.anomalies as u64)
                    .set("healthy", v.healthy(1.0))
            })
            .collect();
        let snapshots = self
            .snapshots
            .iter()
            .map(|(step, path)| Value::obj().set("step", *step as u64).set("path", path.as_str()))
            .collect();
        let black_boxes = self
            .black_boxes
            .iter()
            .map(|(step, path)| Value::obj().set("step", *step as u64).set("path", path.as_str()))
            .collect();
        let mut obj = Value::obj()
            .set("label", self.label.as_str())
            .set("steps", self.steps as u64)
            .set("verdict", self.verdict())
            .set("anomalies", self.anomaly_count() as u64)
            .set("stages", Value::Arr(stages))
            .set("events", Value::Arr(self.events.iter().map(HealthEvent::to_json).collect()))
            .set("snapshots", Value::Arr(snapshots))
            .set("black_boxes", Value::Arr(black_boxes));
        if let Some(m) = &self.metrics {
            obj = obj.set("metrics", m.clone());
        }
        if let Some(t) = &self.timeline {
            obj = obj.set("timeline", t.clone());
        }
        obj
    }

    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== run report: {} ==\n", self.label));
        out.push_str(&format!(
            "steps: {}   verdict: {}   anomalies: {}\n\n",
            self.steps,
            self.verdict().to_uppercase(),
            self.anomaly_count()
        ));
        out.push_str(
            "stage   lambda_hat     tau_fwd   alpha        min_margin        min_t2   anomalies\n",
        );
        for v in &self.stages {
            let margin = if v.min_margin.is_finite() {
                format!("{:.3}@{}", v.min_margin, v.min_margin_step)
            } else {
                "-".to_string()
            };
            let t2 = if v.min_margin_t2.is_finite() {
                format!("{:.3}", v.min_margin_t2)
            } else {
                "-".to_string()
            };
            let flag = if v.healthy(1.0) { "" } else { "  <-- UNSTABLE" };
            out.push_str(&format!(
                "{:>5}   {:<12}   {:<7.2}   {:<10.4e}   {margin:<15}   {t2:<6}   {:>9}{flag}\n",
                v.stage,
                if v.lambda_hat.is_finite() { format!("{:.4e}", v.lambda_hat) } else { "-".into() },
                v.tau_fwd,
                v.alpha,
                v.anomalies,
            ));
        }
        if !self.events.is_empty() {
            out.push_str("\nevents:\n");
            for e in &self.events {
                let stage = e.stage.map(|s| format!(" stage {s}")).unwrap_or_default();
                out.push_str(&format!(
                    "  [step {:>6}] {}{stage} {}: {}\n",
                    e.step,
                    e.severity.name().to_uppercase(),
                    e.kind.name(),
                    e.message
                ));
            }
        }
        if !self.snapshots.is_empty() {
            out.push_str("\nsnapshots:\n");
            for (step, path) in &self.snapshots {
                out.push_str(&format!("  step {step} -> {path}\n"));
            }
        }
        if !self.black_boxes.is_empty() {
            out.push_str("\nblack-box dumps (inspect with `pm trace summary <path>`):\n");
            for (step, path) in &self.black_boxes {
                out.push_str(&format!("  step {step} -> {path}\n"));
            }
        }
        if let Some(t) = &self.timeline {
            if let Some(b) = t.get("bubble_fraction").and_then(Value::as_f64) {
                out.push_str(&format!("\npipeline bubble fraction: {b:.3}\n"));
            }
        }
        out
    }

    /// Writes `<name>.report.json` and `<name>.report.txt` under `dir`
    /// (created if missing) and returns both paths.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, dir: &Path, name: &str) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{name}.report.json"));
        let text_path = dir.join(format!("{name}.report.txt"));
        std::fs::write(&json_path, self.to_json().to_pretty())?;
        std::fs::write(&text_path, self.to_text())?;
        Ok((json_path, text_path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;

    fn stage_obs(alpha: f64, tau: f64) -> StageObservation {
        StageObservation {
            grad_norm: 1.0,
            grad_diff_norm: f64::NAN,
            fwd_diff_norm: f64::NAN,
            weight_norm: 1.0,
            delta_norm: 0.0,
            alpha,
            tau_fwd: tau,
            tau_bkwd: 0.0,
            gamma: 0.0,
        }
    }

    fn obs(step: usize, loss: f64, stages: Vec<StageObservation>) -> StepObservation {
        StepObservation { step, loss, grad_norm: loss.abs(), diverged: false, stages }
    }

    #[test]
    fn lambda_hat_converges_on_exact_secants() {
        let cfg = HealthConfig { warmup_steps: 0, lambda_beta: 0.5, ..Default::default() };
        let mon = HealthMonitor::new(cfg, 1);
        // An exact quadratic with curvature 4: ‖Δg‖ = 4‖Δw‖ every step.
        for t in 0..20 {
            let mut so = stage_obs(0.01, 3.0);
            so.grad_diff_norm = 4.0 * 0.1;
            so.fwd_diff_norm = 0.1;
            mon.observe(&obs(t, 1.0, vec![so]));
        }
        let rep = mon.report("test");
        assert!((rep.stages[0].lambda_hat - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quant_eps_inflates_lambda_and_freezes_below_granularity() {
        let base = HealthConfig { warmup_steps: 0, lambda_beta: 0.0, ..Default::default() };
        let eps = 1.0 / 256.0;
        let exact = HealthMonitor::new(base, 1);
        let quantized = HealthMonitor::new(base.with_quant_eps(eps), 1);
        // A healthy secant well above the quantization granularity:
        // ‖Δg‖ = 0.4, ‖Δu‖ = 0.1, ‖w‖ = 1.
        let mut so = stage_obs(0.01, 3.0);
        so.grad_diff_norm = 0.4;
        so.fwd_diff_norm = 0.1;
        for mon in [&exact, &quantized] {
            mon.observe(&obs(0, 1.0, vec![so]));
        }
        let l_exact = exact.report("e").stages[0].lambda_hat;
        let l_quant = quantized.report("q").stages[0].lambda_hat;
        assert!((l_exact - 4.0).abs() < 1e-9);
        // Denominator shrinks by 2·ε·‖w‖: λ̂ can only grow.
        let expected = 0.4 / (0.1 - 2.0 * eps);
        assert!((l_quant - expected).abs() < 1e-9);
        assert!(l_quant > l_exact);
        // Movement inside the quantization granularity must not update
        // λ̂ at all (it would be pure rounding noise): ‖Δu‖ < 2·ε·‖w‖.
        let mut tiny = so;
        tiny.grad_diff_norm = 1.0;
        tiny.fwd_diff_norm = 0.005;
        quantized.observe(&obs(1, 1.0, vec![tiny]));
        assert_eq!(quantized.report("q").stages[0].lambda_hat, l_quant);
        // The exact monitor would have accepted the same secant.
        exact.observe(&obs(1, 1.0, vec![tiny]));
        assert!(exact.report("e").stages[0].lambda_hat > l_exact);
    }

    #[test]
    fn margin_breach_fires_once_per_excursion() {
        let cfg = HealthConfig { warmup_steps: 2, lambda_beta: 0.0, ..Default::default() };
        let mon = HealthMonitor::new(cfg, 1);
        let lambda = 8.0;
        let tau = 7.0;
        let bound = pipemare_theory::lemma1_max_alpha_frac(lambda, tau);
        let mut breaches = 0;
        for t in 0..10 {
            let mut so = stage_obs(2.0 * bound, tau);
            so.grad_diff_norm = lambda * 0.1;
            so.fwd_diff_norm = 0.1;
            let events = mon.observe(&obs(t, 1.0, vec![so]));
            breaches += events.iter().filter(|e| e.kind == HealthEventKind::MarginBreach).count();
        }
        // Margin ≈ 0.5 every armed step, but hysteresis reports one event.
        assert_eq!(breaches, 1);
        let rep = mon.report("test");
        assert!(rep.stages[0].min_margin < 0.6);
        assert_eq!(rep.worst_stage(), Some(0));
        assert_eq!(rep.verdict(), "warned");
    }

    #[test]
    fn margins_stay_infinite_without_curvature_evidence() {
        let mon = HealthMonitor::new(HealthConfig { warmup_steps: 0, ..Default::default() }, 2);
        for t in 0..5 {
            mon.observe(&obs(t, 1.0, vec![stage_obs(0.1, 7.0), stage_obs(0.1, 5.0)]));
        }
        let rep = mon.report("test");
        assert_eq!(rep.anomaly_count(), 0);
        assert!(rep.stages.iter().all(|v| v.min_margin.is_infinite()));
        assert_eq!(rep.worst_stage(), None);
        assert_eq!(rep.verdict(), "healthy");
    }

    #[test]
    fn nonfinite_and_divergence_latch_once() {
        let mon = HealthMonitor::new(HealthConfig::default(), 1);
        for t in 0..3 {
            let mut o = obs(t, f64::NAN, vec![stage_obs(0.1, 1.0)]);
            o.grad_norm = f64::INFINITY;
            o.diverged = true;
            mon.observe(&o);
        }
        let events = mon.events();
        assert_eq!(events.iter().filter(|e| e.kind == HealthEventKind::NonFiniteLoss).count(), 1);
        assert_eq!(
            events.iter().filter(|e| e.kind == HealthEventKind::NonFiniteGradient).count(),
            1
        );
        assert_eq!(events.iter().filter(|e| e.kind == HealthEventKind::Divergence).count(), 1);
        assert_eq!(mon.max_severity(), Some(Severity::Critical));
    }

    #[test]
    fn loss_spike_needs_armed_baseline() {
        let cfg = HealthConfig { warmup_steps: 3, spike_factor: 10.0, ..Default::default() };
        let spikes = |events: &[HealthEvent]| {
            events.iter().filter(|e| e.kind == HealthEventKind::LossSpike).count()
        };
        // A huge first observation must not fire: the baseline is unarmed.
        let fresh = HealthMonitor::new(cfg, 1);
        assert_eq!(spikes(&fresh.observe(&obs(0, 1e6, vec![stage_obs(0.1, 1.0)]))), 0);

        let mon = HealthMonitor::new(cfg, 1);
        for t in 0..6 {
            assert_eq!(spikes(&mon.observe(&obs(t, 1.0, vec![stage_obs(0.1, 1.0)]))), 0);
        }
        // 100× the ~1.0 baseline fires once per excursion.
        assert_eq!(spikes(&mon.observe(&obs(6, 100.0, vec![stage_obs(0.1, 1.0)]))), 1);
        // Staying high does not re-fire; recovering re-arms.
        assert_eq!(spikes(&mon.observe(&obs(7, 200.0, vec![stage_obs(0.1, 1.0)]))), 0);
        assert_eq!(spikes(&mon.observe(&obs(8, 1.0, vec![stage_obs(0.1, 1.0)]))), 0);
        assert_eq!(spikes(&mon.observe(&obs(9, 100.0, vec![stage_obs(0.1, 1.0)]))), 1);
    }

    #[test]
    fn delay_histograms_ingest_trace_events() {
        let reg = MetricsRegistry::new();
        let mon = HealthMonitor::with_registry(HealthConfig::default(), 2, &reg);
        let span = |kind, stage, mb, ts| TraceEvent {
            kind,
            track: stage,
            stage,
            microbatch: mb,
            ts_us: ts,
            dur_us: 1,
            trace: crate::event::NO_TRACE,
        };
        mon.ingest_events(&[
            span(SpanKind::Forward, 0, 0, 0),
            span(SpanKind::Forward, 0, 1, 10),
            span(SpanKind::Backward, 0, 0, 20),
            span(SpanKind::Backward, 0, 1, 30),
        ]);
        let snap = reg.snapshot();
        let crate::metrics::MetricValue::Histogram(h) =
            snap.get("pipeline.stage0.tau_fwd").unwrap()
        else {
            panic!("expected histogram");
        };
        // mb0: 1 slot (own update); mb1: bkwd(0) between → 2 slots.
        assert_eq!(h.count, 2);
        assert!((h.sum - 3.0).abs() < 1e-12);
    }

    #[test]
    fn report_serializes_to_json_and_text() {
        let reg = MetricsRegistry::new();
        let mon = HealthMonitor::with_registry(
            HealthConfig { warmup_steps: 0, lambda_beta: 0.0, ..Default::default() },
            1,
            &reg,
        );
        let mut so = stage_obs(1.0, 7.0);
        so.grad_diff_norm = 8.0;
        so.fwd_diff_norm = 1.0;
        mon.observe(&obs(0, 1.0, vec![so]));
        mon.record_snapshot(0, "/tmp/x.ckpt");
        mon.record_black_box(0, "/tmp/x.jsonl", 128);
        let rep = mon.report("unit").with_metrics(&reg.snapshot());
        assert_eq!(rep.black_boxes, vec![(0, "/tmp/x.jsonl".to_string())]);
        let json = rep.to_json();
        let parsed = crate::json::parse(&json.to_pretty()).unwrap();
        assert_eq!(parsed.get("label").and_then(Value::as_str), Some("unit"));
        assert!(parsed.get("metrics").is_some());
        assert_eq!(parsed.get("snapshots").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(parsed.get("black_boxes").unwrap().as_arr().unwrap().len(), 1);
        let text = rep.to_text();
        assert!(text.contains("run report: unit"));
        assert!(text.contains("snapshots:"));
        assert!(text.contains("black-box dumps"));
        assert!(rep.events.iter().any(|e| e.kind == HealthEventKind::BlackBoxDump
            && e.severity == Severity::Info
            && e.value == 128.0));
        let dir = std::env::temp_dir().join("pipemare-health-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (jp, tp) = rep.save(&dir, "unit").unwrap();
        assert!(jp.exists() && tp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
