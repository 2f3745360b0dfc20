//! Direct simulators of the delayed quadratic-model recurrences.
//!
//! These generate the trajectories behind Figures 3(a) and 5(a): running
//! fixed-delay (and delay-discrepant) SGD on `f(w) = λ/2·w²` with
//! Gaussian gradient noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a quadratic-model simulation.
#[derive(Clone, Copy, Debug)]
pub struct QuadraticSim {
    /// Curvature λ of `f(w) = λ/2·w²`.
    pub lambda: f64,
    /// Step size α.
    pub alpha: f64,
    /// Forward delay τ_fwd (optimizer steps).
    pub tau_fwd: usize,
    /// Backward delay τ_bkwd (must satisfy `τ_bkwd ≤ τ_fwd`).
    pub tau_bkwd: usize,
    /// Gradient sensitivity Δ to the forward/backward discrepancy
    /// (`0` recovers the single-delay model of §3.1).
    pub delta: f64,
    /// Standard deviation of the gradient noise `η_t`.
    pub noise_std: f64,
    /// Initial weight value.
    pub w0: f64,
    /// Steps to simulate.
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuadraticSim {
    fn default() -> Self {
        QuadraticSim {
            lambda: 1.0,
            alpha: 0.2,
            tau_fwd: 0,
            tau_bkwd: 0,
            delta: 0.0,
            noise_std: 1.0,
            w0: 0.0,
            steps: 250,
            seed: 0,
        }
    }
}

/// The trajectory produced by a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Loss `λ/2·w_t²` at each step (capped at `f64::MAX` on overflow).
    pub losses: Vec<f64>,
    /// Whether the trajectory stayed finite.
    pub diverged: bool,
}

impl SimResult {
    /// Mean loss over the final quarter of the trajectory
    /// (`f64::INFINITY` when diverged).
    pub fn tail_loss(&self) -> f64 {
        if self.diverged {
            return f64::INFINITY;
        }
        let n = self.losses.len();
        let start = n - n / 4 - 1;
        let tail = &self.losses[start..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

impl QuadraticSim {
    /// Runs the recurrence
    /// `w_{t+1} = w_t − α(λ+Δ)·w_{t−τf} + αΔ·w_{t−τb} + α·η_t`
    /// (Eq. 2 when `Δ = 0`; the §3.2 discrepancy model otherwise).
    pub fn run(&self) -> SimResult {
        assert!(self.tau_bkwd <= self.tau_fwd, "τ_bkwd must be ≤ τ_fwd");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let hist = self.tau_fwd + 1;
        let mut w = vec![self.w0; hist];
        let mut losses = Vec::with_capacity(self.steps);
        let mut cur = self.w0;
        for t in 0..self.steps {
            // w[(t - τ) mod hist] holds w_{t-τ} because w_t is written at
            // slot t mod hist below.
            let wf = if t >= self.tau_fwd { w[(t - self.tau_fwd) % hist] } else { self.w0 };
            let wb = if t >= self.tau_bkwd { w[(t - self.tau_bkwd) % hist] } else { self.w0 };
            let noise = self.noise_std * standard_normal(&mut rng);
            let next = cur - self.alpha * (self.lambda + self.delta) * wf
                + self.alpha * self.delta * wb
                + self.alpha * noise;
            let loss = 0.5 * self.lambda * cur * cur;
            losses.push(if loss.is_finite() { loss } else { f64::MAX });
            if !next.is_finite() || next.abs() > 1e150 {
                // Mark the remainder as diverged.
                losses.resize(self.steps, f64::MAX);
                return SimResult { losses, diverged: true };
            }
            cur = next;
            w[(t + 1) % hist] = cur;
        }
        SimResult { losses, diverged: false }
    }
}

/// The App. D recompute model: three delayed weight reads with
/// sensitivities `(λ+Δ, −(Δ−Φ), −Φ)` at delays `(τf, τb, τr)`.
#[derive(Clone, Copy, Debug)]
pub struct RecomputeModel {
    /// Base simulation parameters (uses `lambda/alpha/tau_fwd/tau_bkwd/
    /// delta/noise_std/steps/seed`).
    pub base: QuadraticSim,
    /// Recompute delay `τ_recomp` (`τ_bkwd ≤ τ_recomp ≤ τ_fwd`).
    pub tau_recomp: usize,
    /// Recompute sensitivity Φ.
    pub phi: f64,
}

impl RecomputeModel {
    /// Runs the recurrence
    /// `w_{t+1} = w_t − α[(λ+Δ)w_{t−τf} − (Δ−Φ)w_{t−τb} − Φw_{t−τr}] + αη`.
    pub fn run(&self) -> SimResult {
        let b = &self.base;
        assert!(b.tau_bkwd <= self.tau_recomp && self.tau_recomp <= b.tau_fwd);
        let mut rng = StdRng::seed_from_u64(b.seed);
        let hist = b.tau_fwd + 1;
        let mut w = vec![b.w0; hist];
        let mut losses = Vec::with_capacity(b.steps);
        let mut cur = b.w0;
        for t in 0..b.steps {
            let read = |tau: usize| if t >= tau { w[(t - tau) % hist] } else { b.w0 };
            let (wf, wb, wr) = (read(b.tau_fwd), read(b.tau_bkwd), read(self.tau_recomp));
            let noise = b.noise_std * standard_normal(&mut rng);
            let grad = (b.lambda + b.delta) * wf - (b.delta - self.phi) * wb - self.phi * wr;
            let next = cur - b.alpha * grad + b.alpha * noise;
            let loss = 0.5 * b.lambda * cur * cur;
            losses.push(if loss.is_finite() { loss } else { f64::MAX });
            if !next.is_finite() || next.abs() > 1e150 {
                losses.resize(b.steps, f64::MAX);
                return SimResult { losses, diverged: true };
            }
            cur = next;
            w[(t + 1) % hist] = cur;
        }
        SimResult { losses, diverged: false }
    }
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
/// The recurrence's App. B.3 and T2 variants: the oracles the Lemma 3 and
/// T2 characteristic-polynomial tests check against.
impl QuadraticSim {
    /// Runs delayed SGD **with momentum** (App. B.3):
    /// `w_{t+1} − w_t = β(w_t − w_{t−1}) − αλ·w_{t−τ} + αη_t`.
    /// Uses `tau_fwd` as the delay (the momentum analysis assumes a
    /// single delay); `delta` is ignored.
    pub(crate) fn run_with_momentum(&self, beta: f64) -> SimResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let hist = self.tau_fwd + 1;
        let mut w = vec![self.w0; hist];
        let mut losses = Vec::with_capacity(self.steps);
        let mut cur = self.w0;
        let mut prev = self.w0;
        for t in 0..self.steps {
            let wf = if t >= self.tau_fwd { w[(t - self.tau_fwd) % hist] } else { self.w0 };
            let noise = self.noise_std * standard_normal(&mut rng);
            let next =
                cur + beta * (cur - prev) - self.alpha * self.lambda * wf + self.alpha * noise;
            let loss = 0.5 * self.lambda * cur * cur;
            losses.push(if loss.is_finite() { loss } else { f64::MAX });
            if !next.is_finite() || next.abs() > 1e150 {
                losses.resize(self.steps, f64::MAX);
                return SimResult { losses, diverged: true };
            }
            prev = cur;
            cur = next;
            w[(t + 1) % hist] = cur;
        }
        SimResult { losses, diverged: false }
    }

    /// Runs the same recurrence with the T2 discrepancy correction:
    /// the backward read becomes `w_{t−τb} − (τf−τb)·δ_t` with
    /// `δ_{t+1} = γδ_t + (1−γ)(w_{t+1} − w_t)`.
    pub(crate) fn run_with_t2(&self, gamma: f64) -> SimResult {
        assert!(self.tau_bkwd <= self.tau_fwd);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let hist = self.tau_fwd + 1;
        let mut w = vec![self.w0; hist];
        let mut losses = Vec::with_capacity(self.steps);
        let mut cur = self.w0;
        let mut deltav = 0.0f64;
        let gap = (self.tau_fwd - self.tau_bkwd) as f64;
        for t in 0..self.steps {
            let wf = if t >= self.tau_fwd { w[(t - self.tau_fwd) % hist] } else { self.w0 };
            let wb_raw = if t >= self.tau_bkwd { w[(t - self.tau_bkwd) % hist] } else { self.w0 };
            let wb = wb_raw - gap * deltav;
            let noise = self.noise_std * standard_normal(&mut rng);
            let next = cur - self.alpha * (self.lambda + self.delta) * wf
                + self.alpha * self.delta * wb
                + self.alpha * noise;
            let loss = 0.5 * self.lambda * cur * cur;
            losses.push(if loss.is_finite() { loss } else { f64::MAX });
            if !next.is_finite() || next.abs() > 1e150 {
                losses.resize(self.steps, f64::MAX);
                return SimResult { losses, diverged: true };
            }
            deltav = gamma * deltav + (1.0 - gamma) * (next - cur);
            cur = next;
            w[(t + 1) % hist] = cur;
        }
        SimResult { losses, diverged: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::lemma1_max_alpha;

    #[test]
    fn fig3a_tau10_diverges_tau0_converges() {
        // Figure 3(a): λ = 1, α = 0.2, noise N(0,1); τ = 0 and 5 stay
        // bounded, τ = 10 diverges.
        let base = QuadraticSim {
            lambda: 1.0,
            alpha: 0.2,
            noise_std: 1.0,
            steps: 250,
            ..Default::default()
        };
        let r0 = QuadraticSim { tau_fwd: 0, ..base }.run();
        let r5 = QuadraticSim { tau_fwd: 5, ..base }.run();
        let r10 = QuadraticSim { tau_fwd: 10, ..base }.run();
        assert!(!r0.diverged);
        assert!(!r5.diverged);
        assert!(
            r10.diverged || r10.tail_loss() > 100.0 * r0.tail_loss(),
            "τ=10 should blow up: tail {} vs {}",
            r10.tail_loss(),
            r0.tail_loss()
        );
    }

    #[test]
    fn stability_boundary_matches_lemma1() {
        // Noise-free: below the Lemma 1 bound w→0, above it w explodes.
        for tau in [2usize, 8, 16] {
            let bound = lemma1_max_alpha(1.0, tau);
            let mk = |alpha: f64| QuadraticSim {
                lambda: 1.0,
                alpha,
                tau_fwd: tau,
                noise_std: 0.0,
                w0: 1.0,
                steps: 8000,
                ..Default::default()
            };
            let stable = mk(0.9 * bound).run();
            let unstable = mk(1.1 * bound).run();
            assert!(
                stable.tail_loss() < 0.5,
                "τ={tau}: below bound should decay, tail {}",
                stable.tail_loss()
            );
            assert!(
                unstable.diverged || unstable.tail_loss() > 1.0,
                "τ={tau}: above bound should grow, tail {}",
                unstable.tail_loss()
            );
        }
    }

    #[test]
    fn fig5a_delta_causes_divergence() {
        // Figure 5(a): τf=10, τb=6, λ=1; Δ=0 converges at an α where Δ=5
        // diverges.
        let base = QuadraticSim {
            lambda: 1.0,
            alpha: 0.12,
            tau_fwd: 10,
            tau_bkwd: 6,
            noise_std: 1.0,
            steps: 250,
            ..Default::default()
        };
        let r0 = QuadraticSim { delta: 0.0, ..base }.run();
        let r5 = QuadraticSim { delta: 5.0, ..base }.run();
        assert!(!r0.diverged, "Δ=0 should stay bounded");
        assert!(r5.diverged || r5.tail_loss() > 100.0 * r0.tail_loss(), "Δ=5 should blow up");
    }

    #[test]
    fn t2_stabilizes_discrepant_system() {
        // At an α where the uncorrected discrepant system diverges, the
        // T2-corrected system (D = 0.1) survives.
        // Measured thresholds for this configuration: the uncorrected
        // system becomes unstable at α ≈ 0.038, the T2-corrected one at
        // α ≈ 0.104 — so α = 0.08 separates them.
        let base = QuadraticSim {
            lambda: 1.0,
            alpha: 0.08,
            tau_fwd: 10,
            tau_bkwd: 6,
            delta: 5.0,
            noise_std: 0.0,
            w0: 1.0,
            steps: 4000,
            ..Default::default()
        };
        let plain = base.run();
        let gamma = 0.1f64.powf(1.0 / 4.0);
        let fixed = base.run_with_t2(gamma);
        assert!(plain.diverged || plain.tail_loss() > 1.0, "uncorrected should diverge");
        assert!(!fixed.diverged, "T2-corrected should stay finite");
        assert!(fixed.tail_loss() < 1e-3, "T2-corrected should decay, tail {}", fixed.tail_loss());
    }

    #[test]
    fn recompute_model_reduces_to_discrepancy_when_phi_zero() {
        let base = QuadraticSim {
            lambda: 1.0,
            alpha: 0.01,
            tau_fwd: 10,
            tau_bkwd: 1,
            delta: 3.0,
            noise_std: 0.5,
            steps: 200,
            seed: 3,
            ..Default::default()
        };
        let a = base.run();
        let b = RecomputeModel { base, tau_recomp: 4, phi: 0.0 }.run();
        assert_eq!(a.diverged, b.diverged);
        for (x, y) in a.losses.iter().zip(b.losses.iter()) {
            // Identical recurrences up to floating-point association.
            assert!((x - y).abs() <= 1e-9 + 1e-6 * y.abs(), "{x} vs {y}");
        }
    }

    #[test]
    fn momentum_simulation_matches_its_characteristic_polynomial() {
        use crate::companion::char_poly_momentum;
        use crate::poly::spectral_radius;
        for &(alpha, beta) in &[(0.01, 0.9), (0.05, 0.5), (0.15, 0.9), (0.2, 0.3)] {
            let tau = 6;
            let r = spectral_radius(&char_poly_momentum(1.0, alpha, beta, tau));
            let sim = QuadraticSim {
                lambda: 1.0,
                alpha,
                tau_fwd: tau,
                noise_std: 0.0,
                w0: 1.0,
                steps: 8000,
                ..Default::default()
            };
            let result = sim.run_with_momentum(beta);
            let decayed = !result.diverged && result.tail_loss() < 1e-6;
            if r < 0.995 {
                assert!(
                    decayed,
                    "radius {r} < 1 but momentum run did not decay (α={alpha}, β={beta})"
                );
            }
            if r > 1.005 {
                assert!(!decayed, "radius {r} > 1 but momentum run decayed (α={alpha}, β={beta})");
            }
        }
    }

    #[test]
    fn momentum_with_zero_beta_matches_plain_sgd() {
        let sim = QuadraticSim {
            lambda: 1.0,
            alpha: 0.05,
            tau_fwd: 5,
            noise_std: 0.3,
            steps: 300,
            seed: 9,
            ..Default::default()
        };
        let plain = sim.run();
        let momentum = sim.run_with_momentum(0.0);
        for (a, b) in plain.losses.iter().zip(momentum.losses.iter()) {
            assert!((a - b).abs() <= 1e-9 + 1e-6 * b.abs());
        }
    }

    #[test]
    fn simulation_matches_spectral_radius_prediction() {
        // Noise-free trajectories decay iff the companion spectral radius
        // is below 1 — cross-check simulator vs. root finder.
        use crate::companion::char_poly_discrepancy;
        use crate::poly::spectral_radius;
        for &(alpha, delta) in &[(0.02, 2.0), (0.08, 2.0), (0.02, 8.0), (0.2, 0.5)] {
            let sim = QuadraticSim {
                lambda: 1.0,
                alpha,
                tau_fwd: 8,
                tau_bkwd: 3,
                delta,
                noise_std: 0.0,
                w0: 1.0,
                steps: 6000,
                ..Default::default()
            };
            let r = spectral_radius(&char_poly_discrepancy(1.0, delta, alpha, 8, 3));
            let result = sim.run();
            let decayed = !result.diverged && result.tail_loss() < 1e-6;
            if r < 0.995 {
                assert!(
                    decayed,
                    "radius {r} < 1 but trajectory did not decay (α={alpha}, Δ={delta})"
                );
            }
            if r > 1.005 {
                assert!(!decayed, "radius {r} > 1 but trajectory decayed (α={alpha}, Δ={delta})");
            }
        }
    }
}
