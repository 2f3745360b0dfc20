//! Inverted dropout with deterministic, counter-derived masks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

/// Inverted dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`, so the expected
/// activation is unchanged and no rescaling is needed at evaluation.
///
/// Masks are derived deterministically from a per-layer seed and an
/// atomic call counter (rather than a shared RNG), so training runs are
/// reproducible and the layer stays `Send + Sync`. Call
/// [`Dropout::set_enabled`] with `false` around evaluation.
#[derive(Debug)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    seed: u64,
    counter: AtomicU64,
    enabled: AtomicBool,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability {p} out of range [0, 1)");
        Dropout { p, seed, counter: AtomicU64::new(0), enabled: AtomicBool::new(true) }
    }

    /// Enables (training) or disables (evaluation) dropping.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether dropping is currently active.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// SplitMix64: cheap, well-distributed per-element hash.
    fn hash(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn keep(&self, call: u64, index: usize) -> bool {
        let h = Self::hash(
            self.seed ^ call.rotate_left(17) ^ (index as u64).wrapping_mul(0x1000_0000_01b3),
        );
        // Map the top 24 bits to [0, 1).
        let u = (h >> 40) as f32 / (1u64 << 24) as f32;
        u >= self.p
    }

    /// Both passes: the output and, with `MASK`, the per-element factor
    /// (`1/(1−p)` or `0`) that `backward` applies; `None` for the
    /// identity pass. A dropping call takes the next counter value in
    /// either pass, so the masks after it do not depend on the pass.
    fn apply<const MASK: bool>(&self, x: &Tensor) -> (Tensor, Option<Tensor>) {
        if !self.is_enabled() || self.p == 0.0 {
            return (x.clone(), None);
        }
        let call = self.counter.fetch_add(1, Ordering::Relaxed);
        let scale = 1.0 / (1.0 - self.p);
        let mut mask = Vec::with_capacity(if MASK { x.len() } else { 0 });
        let mut y = x.clone();
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            let keep = self.keep(call, i);
            *v = if keep { *v * scale } else { 0.0 };
            if MASK {
                mask.push(if keep { scale } else { 0.0 });
            }
        }
        (y, MASK.then(|| Tensor::from_vec(mask, &[x.len()])))
    }
}

impl Layer for Dropout {
    fn param_len(&self) -> usize {
        0
    }

    fn init_params(&self, _out: &mut [f32], _rng: &mut StdRng) {}

    fn forward(&self, _params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let (y, mask) = self.apply::<true>(x);
        let cache = match mask {
            // The scalar is a sentinel: NaN marks the identity pass.
            None => Cache { scalars: vec![f32::NAN], ..Cache::new() },
            Some(mask) => Cache { scalars: vec![0.0], ..Cache::with_tensors(vec![mask]) },
        };
        (y, cache)
    }

    fn forward_no_cache(&self, _params: &[f32], x: &Tensor) -> Tensor {
        self.apply::<false>(x).0
    }

    fn backward_into(&self, _: &[f32], cache: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        if cache.scalars.first().is_some_and(|s| s.is_nan()) {
            return dy.clone();
        }
        let mask = cache.tensor(0);
        let mut dx = dy.clone();
        for (g, &m) in dx.data_mut().iter_mut().zip(mask.data().iter()) {
            *g *= m;
        }
        dx
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        Vec::new()
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_identity() {
        let d = Dropout::new(0.5, 1);
        d.set_enabled(false);
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[8]);
        let (y, cache) = d.forward(&[], &x);
        assert_eq!(y, x);
        let (dx, _) = d.backward(&[], &cache, &x);
        assert_eq!(dx, x);
    }

    #[test]
    fn zero_probability_is_identity() {
        let d = Dropout::new(0.0, 1);
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[8]);
        let (y, _) = d.forward(&[], &x);
        assert_eq!(y, x);
    }

    #[test]
    fn survivors_scaled_and_mean_preserved() {
        let d = Dropout::new(0.3, 7);
        let x = Tensor::full(&[10_000], 1.0);
        let (y, _) = d.forward(&[], &x);
        // Elements are 0 or 1/(1-p).
        let scale = 1.0 / 0.7;
        for &v in y.data() {
            assert!(v == 0.0 || (v - scale).abs() < 1e-5);
        }
        // Expected mean 1 within sampling noise.
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn backward_routes_through_same_mask() {
        let d = Dropout::new(0.5, 3);
        let x = Tensor::full(&[64], 1.0);
        let (y, cache) = d.forward(&[], &x);
        let (dx, _) = d.backward(&[], &cache, &Tensor::full(&[64], 1.0));
        // Gradient flows exactly where activations survived.
        for (a, b) in y.data().iter().zip(dx.data().iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn masks_differ_across_calls_but_are_reproducible() {
        let d1 = Dropout::new(0.5, 11);
        let x = Tensor::full(&[128], 1.0);
        let (a, _) = d1.forward(&[], &x);
        let (b, _) = d1.forward(&[], &x);
        assert_ne!(a, b, "consecutive calls should use different masks");
        let d2 = Dropout::new(0.5, 11);
        let (a2, _) = d2.forward(&[], &x);
        assert_eq!(a, a2, "same seed + call index must reproduce the mask");
    }
}
