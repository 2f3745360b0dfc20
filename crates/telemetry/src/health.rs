//! Training health monitor: online, theory-backed stability margins.
//!
//! PipeMare's contribution is keeping *asynchronous* training stable, so
//! the repo's observability layer should be able to say "this run is
//! about to diverge" before the loss log does. Each optimizer step the
//! [`HealthMonitor`] ingests one [`StageObservation`] per stage — the
//! gradient and forward-weight secants, the T2 weight-velocity ‖δ‖ the
//! trainer already maintains, and the stage's step size and delays — and
//! publishes four gauges per stage into its registry:
//!
//! * `health.stage{i}.lambda_hat`: a curvature estimate λ̂ from secant
//!   differences along the trajectory;
//! * `health.stage{i}.alpha_margin = lemma1_max_alpha_frac(λ̂, τ_i) / α_i`;
//! * `health.stage{i}.alpha_margin_t2`: the T2-corrected variant via the
//!   `char_poly_t2` spectral radius, when discrepancy correction is on;
//! * `health.stage{i}.delta_norm`: ‖δ‖ over the stage's slice.
//!
//! Every gauge reads NaN (no data) until the monitor first sets it, and
//! the margins are set only after [`HealthConfig::warmup_steps`]
//! observations, while λ̂ settles. The monitor raises no alarm itself: a
//! margin below 1 is an [`crate::AlertEngine`] rule over these gauges
//! ([`crate::training_rules`] for a trainer, [`crate::default_rules`] for
//! a live store), and fires *before* the recurrence has had time to blow
//! the loss up.
//!
//! The λ̂ estimator is a per-stage secant quotient
//! `λ̂_s ≈ ‖g_t − g_{t−1}‖_s / ‖u_t − u_{t−1}‖_s`, where `g` is the
//! minibatch gradient and `u` the *forward-version* weights the gradient
//! was evaluated at (using the forward view, not the freshly updated
//! weights, keeps the estimate unbiased under delay: both differences
//! are taken at the same staleness). The quotient is EWMA-smoothed and
//! frozen when the trajectory stalls below numerical resolution, where
//! f32 cancellation would turn it into noise.

use std::sync::{Arc, Mutex};

use pipemare_theory::{lemma1_alpha_margin, quantized_secant_denominator, t2_alpha_margin};

use crate::metrics::{Gauge, MetricsRegistry};

/// EWMA decay of the per-stage curvature estimate λ̂.
const LAMBDA_BETA: f64 = 0.9;

/// The discrepancy sensitivity Δ is not observable online; the
/// T2-corrected margin uses `Δ = T2_DELTA_FRAC · λ̂`.
const T2_DELTA_FRAC: f64 = 0.5;

/// Tunables of the [`HealthMonitor`] and of the trainer's
/// [`crate::training_rules`].
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// A finite loss or gradient norm more than this factor above its
    /// EWMA baseline is a spike.
    pub spike_factor: f64,
    /// Steps before spike baselines are armed and margins are published
    /// (λ̂ needs a few secants to settle).
    pub warmup_steps: usize,
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
        HealthConfig { spike_factor: 10.0, warmup_steps: 10, quant_eps: 0.0 }
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

/// One stage's estimator state and the gauges it publishes.
struct Stage {
    lambda_hat: f64,
    t2_cache: Option<T2Cache>,
    margin: Arc<Gauge>,
    margin_t2: Arc<Gauge>,
    lambda: Arc<Gauge>,
    delta: Arc<Gauge>,
}

/// The training health monitor. All methods take `&self` (state lives
/// behind a mutex), so a trainer and a reporting thread can share it via
/// `Arc`.
pub struct HealthMonitor {
    cfg: HealthConfig,
    registry: Arc<MetricsRegistry>,
    /// Observations so far, and the per-stage state.
    inner: Mutex<(usize, Vec<Stage>)>,
}

impl HealthMonitor {
    /// Creates a monitor for an `n_stages`-deep pipeline publishing into
    /// a registry of its own.
    pub fn new(cfg: HealthConfig, n_stages: usize) -> Self {
        Self::with_registry(cfg, n_stages, Arc::new(MetricsRegistry::new()))
    }

    /// Creates a monitor that publishes its gauges
    /// (`health.stage{i}.alpha_margin`, `.alpha_margin_t2`,
    /// `.lambda_hat`, `.delta_norm`) into `registry`.
    pub fn with_registry(
        cfg: HealthConfig,
        n_stages: usize,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        assert!(n_stages > 0, "health monitor needs at least one stage");
        let gauge = |s: usize, name: &str| {
            let g = registry.gauge(&format!("health.stage{s}.{name}"));
            g.set(f64::NAN);
            g
        };
        let stages = (0..n_stages)
            .map(|s| Stage {
                lambda_hat: f64::NAN,
                t2_cache: None,
                margin: gauge(s, "alpha_margin"),
                margin_t2: gauge(s, "alpha_margin_t2"),
                lambda: gauge(s, "lambda_hat"),
                delta: gauge(s, "delta_norm"),
            })
            .collect();
        HealthMonitor { cfg, inner: Mutex::new((0, stages)), registry }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// The registry the gauges live in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Number of pipeline stages being monitored.
    pub fn n_stages(&self) -> usize {
        self.inner.lock().unwrap().1.len()
    }

    /// Ingests one optimizer step, one observation per stage, and
    /// updates the gauges.
    pub fn observe(&self, stages: &[StageObservation]) {
        let mut inner = self.inner.lock().unwrap();
        let (observed, states) = &mut *inner;
        let armed = *observed >= self.cfg.warmup_steps;
        *observed += 1;
        for (st, so) in states.iter_mut().zip(stages) {
            self.observe_stage(st, so, armed);
        }
    }

    /// λ̂ update and stability margins for one stage.
    fn observe_stage(&self, st: &mut Stage, so: &StageObservation, armed: bool) {
        // Secant curvature estimate, frozen when the trajectory moves
        // less than f32 resolution — or the weight storage's quantization
        // granularity — can measure (the quotient of two
        // cancellation-dominated differences is noise, and a noisy λ̂
        // spike would fabricate a margin breach). Under quantized
        // storage the denominator additionally sheds the worst-case
        // rounding 2·ε·‖w‖, so λ̂ errs high (conservative margins), not
        // low.
        let eps = self.cfg.quant_eps;
        let noise_floor = (1e-5 * so.weight_norm.max(1e-3)).max(2.0 * eps * so.weight_norm);
        if so.grad_diff_norm.is_finite()
            && so.fwd_diff_norm.is_finite()
            && so.fwd_diff_norm > noise_floor
        {
            let raw = so.grad_diff_norm
                / quantized_secant_denominator(so.fwd_diff_norm, so.weight_norm, eps, noise_floor);
            st.lambda_hat = if st.lambda_hat.is_finite() {
                LAMBDA_BETA * st.lambda_hat + (1.0 - LAMBDA_BETA) * raw
            } else {
                raw
            };
        }
        st.lambda.set(st.lambda_hat);
        st.delta.set(so.delta_norm);
        if !armed {
            return;
        }
        st.margin.set(lemma1_alpha_margin(st.lambda_hat, so.tau_fwd, so.alpha));
        // T2-corrected margin, only when discrepancy correction is on.
        if so.gamma > 0.0 {
            let margin_t2 = t2_margin(st, so);
            st.margin_t2.set(margin_t2);
        }
    }
}

/// The T2-corrected margin with a 2%-relative input cache (the
/// underlying bisection is expensive).
fn t2_margin(st: &mut Stage, so: &StageObservation) -> f64 {
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
    let lambda = st.lambda_hat;
    let margin = t2_alpha_margin(
        lambda,
        T2_DELTA_FRAC * lambda,
        so.tau_fwd,
        so.tau_bkwd,
        so.gamma,
        so.alpha,
    );
    st.t2_cache =
        Some(T2Cache { lambda, alpha: so.alpha, gamma: so.gamma, tau_fwd: so.tau_fwd, margin });
    margin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    fn stage_obs(alpha: f64, tau: f64) -> StageObservation {
        StageObservation {
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

    fn gauge(mon: &HealthMonitor, name: &str) -> f64 {
        match mon.registry().snapshot().get(name) {
            Some(MetricValue::Gauge(g)) => *g,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn lambda_hat_converges_on_exact_secants() {
        let mon = HealthMonitor::new(HealthConfig { warmup_steps: 0, ..Default::default() }, 1);
        // An exact quadratic with curvature 4: ‖Δg‖ = 4‖Δw‖ every step.
        for _ in 0..20 {
            let mut so = stage_obs(0.01, 3.0);
            so.grad_diff_norm = 4.0 * 0.1;
            so.fwd_diff_norm = 0.1;
            mon.observe(&[so]);
        }
        assert!((gauge(&mon, "health.stage0.lambda_hat") - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quant_eps_inflates_lambda_and_freezes_below_granularity() {
        let base = HealthConfig { warmup_steps: 0, ..Default::default() };
        let eps = 1.0 / 256.0;
        let exact = HealthMonitor::new(base, 1);
        let quantized = HealthMonitor::new(base.with_quant_eps(eps), 1);
        // A healthy secant well above the quantization granularity:
        // ‖Δg‖ = 0.4, ‖Δu‖ = 0.1, ‖w‖ = 1.
        let mut so = stage_obs(0.01, 3.0);
        so.grad_diff_norm = 0.4;
        so.fwd_diff_norm = 0.1;
        for mon in [&exact, &quantized] {
            mon.observe(&[so]);
        }
        let lambda = |mon: &HealthMonitor| gauge(mon, "health.stage0.lambda_hat");
        let (l_exact, l_quant) = (lambda(&exact), lambda(&quantized));
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
        quantized.observe(&[tiny]);
        assert_eq!(lambda(&quantized), l_quant);
        // The exact monitor would have accepted the same secant.
        exact.observe(&[tiny]);
        assert!(lambda(&exact) > l_exact);
    }

    #[test]
    fn margins_publish_after_warmup_and_read_nan_before() {
        let mon = HealthMonitor::new(HealthConfig { warmup_steps: 2, ..Default::default() }, 2);
        let (lambda, tau) = (8.0, 7.0);
        let bound = pipemare_theory::lemma1_max_alpha_frac(lambda, tau);
        let mut so = stage_obs(2.0 * bound, tau);
        so.grad_diff_norm = lambda * 0.1;
        so.fwd_diff_norm = 0.1;
        for t in 0..3 {
            assert!(gauge(&mon, "health.stage0.alpha_margin").is_nan(), "warming up at step {t}");
            // Stage 1 never sees a secant: no curvature evidence, no bound.
            mon.observe(&[so, stage_obs(0.1, 5.0)]);
        }
        assert!((gauge(&mon, "health.stage0.alpha_margin") - 0.5).abs() < 1e-9);
        assert!(gauge(&mon, "health.stage1.alpha_margin").is_infinite());
        assert!(gauge(&mon, "health.stage0.alpha_margin_t2").is_nan(), "T2 is off");
        assert_eq!(gauge(&mon, "health.stage1.delta_norm"), 0.0);
    }
}
