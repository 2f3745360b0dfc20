//! Hogwild!-style stochastic delays (App. E).
//!
//! The paper's variant samples each stage's gradient delay from a
//! truncated exponential distribution (the maximum-entropy choice, after
//! Mitliagkas et al. 2016), with per-stage means mirroring the pipeline's
//! delay profile and a common truncation point.

use pipemare_theory::delay_slots;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-stage truncated-exponential delay sampler.
#[derive(Clone, Debug)]
pub struct HogwildDelays {
    /// Mean of the (untruncated) exponential for each stage.
    pub means: Vec<f64>,
    /// Truncation point: sampled delays are `min(d, max_delay)`.
    pub max_delay: usize,
}

impl HogwildDelays {
    /// Builds delays whose per-stage means follow the pipeline profile
    /// `τ_i = (2(P−i)+1)/N` (so the stochastic model is comparable to the
    /// fixed-delay one), truncated at `⌈2·max τ⌉`.
    pub fn from_pipeline_profile(stages: usize, n_micro: usize) -> Self {
        let means: Vec<f64> =
            (0..stages).map(|s| delay_slots(stages, s) as f64 / n_micro as f64).collect();
        let max_delay = (2.0 * means[0]).ceil() as usize;
        HogwildDelays { means, max_delay: max_delay.max(1) }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.means.len()
    }

    /// Samples the delay (in optimizer steps) for stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn sample(&self, s: usize, rng: &mut StdRng) -> usize {
        let mean = self.means[s];
        if mean <= 0.0 {
            return 0;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let d = (-mean * u.ln()).floor() as usize;
        d.min(self.max_delay)
    }

    /// The largest delay this sampler can produce.
    pub fn max(&self) -> usize {
        self.max_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn profile_matches_pipeline_delays() {
        let h = HogwildDelays::from_pipeline_profile(5, 2);
        assert_eq!(h.stages(), 5);
        assert!((h.means[0] - 4.5).abs() < 1e-12); // (2*4+1)/2
        assert!((h.means[4] - 0.5).abs() < 1e-12);
        assert_eq!(h.max(), 9);
    }

    #[test]
    fn samples_bounded_and_mean_reasonable() {
        let h = HogwildDelays::from_pipeline_profile(8, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mut sum = 0usize;
        for _ in 0..n {
            let d = h.sample(0, &mut rng);
            assert!(d <= h.max());
            sum += d;
        }
        let mean = sum as f64 / n as f64;
        // Untruncated mean is 15 (minus ~0.5 for the floor); truncation at
        // 30 pulls it down further. Expect it within [9, 15].
        assert!(mean > 9.0 && mean < 15.0, "mean {mean}");
    }

    #[test]
    fn later_stages_have_smaller_delays() {
        let h = HogwildDelays::from_pipeline_profile(6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample_mean = |s: usize, rng: &mut StdRng| {
            (0..5000).map(|_| h.sample(s, rng)).sum::<usize>() as f64 / 5000.0
        };
        let early = sample_mean(0, &mut rng);
        let late = sample_mean(5, &mut rng);
        assert!(early > late, "early {early} vs late {late}");
    }

    #[test]
    fn deterministic_given_seed() {
        let h = HogwildDelays::from_pipeline_profile(4, 1);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for s in 0..4 {
            assert_eq!(h.sample(s, &mut a), h.sample(s, &mut b));
        }
    }
}
