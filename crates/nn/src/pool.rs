//! Pooling and reshaping layers.

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

/// Global average pooling: `(B, C, H, W) -> (B, C)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct GlobalAvgPool2d;

impl Layer for GlobalAvgPool2d {
    fn param_len(&self) -> usize {
        0
    }

    fn init_params(&self, _out: &mut [f32], _rng: &mut StdRng) {}

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let mut cache = Cache::new();
        cache.indices = x.shape().to_vec();
        (self.forward_no_cache(params, x), cache)
    }

    fn forward_no_cache(&self, _params: &[f32], x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 4, "GlobalAvgPool2d input must be (B,C,H,W)");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let mut y = Tensor::zeros(&[b, c]);
        let scale = 1.0 / (h * w) as f32;
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                y.data_mut()[bi * c + ci] =
                    x.data()[base..base + h * w].iter().sum::<f32>() * scale;
            }
        }
        y
    }

    fn backward_into(&self, _: &[f32], cache: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        let (b, c, h, w) = (cache.indices[0], cache.indices[1], cache.indices[2], cache.indices[3]);
        let mut dx = Tensor::zeros(&[b, c, h, w]);
        let scale = 1.0 / (h * w) as f32;
        for bi in 0..b {
            for ci in 0..c {
                let g = dy.data()[bi * c + ci] * scale;
                let base = (bi * c + ci) * h * w;
                for v in &mut dx.data_mut()[base..base + h * w] {
                    *v = g;
                }
            }
        }
        dx
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        Vec::new()
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], input[1]]
    }
}

/// Max pooling with square window and stride equal to the window size.
#[derive(Clone, Copy, Debug)]
pub struct MaxPool2d {
    /// Window (and stride) size.
    pub window: usize,
}

impl MaxPool2d {
    /// Creates a max-pool with the given window/stride.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "MaxPool2d window must be positive");
        MaxPool2d { window }
    }

    /// Both passes: the pooled maxima and, with `ARGMAX`, the input index
    /// each one came from.
    fn pool<const ARGMAX: bool>(&self, x: &Tensor) -> (Tensor, Vec<usize>) {
        assert_eq!(x.ndim(), 4, "MaxPool2d input must be (B,C,H,W)");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let mut y = Tensor::zeros(&[b, c, oh, ow]);
        let mut argmax = Vec::with_capacity(if ARGMAX { b * c * oh * ow } else { 0 });
        for bi in 0..b {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for ky in 0..k {
                            for kx in 0..k {
                                let i = ((bi * c + ci) * h + oy * k + ky) * w + ox * k + kx;
                                if x.data()[i] > best {
                                    best = x.data()[i];
                                    best_i = i;
                                }
                            }
                        }
                        y.data_mut()[((bi * c + ci) * oh + oy) * ow + ox] = best;
                        if ARGMAX {
                            argmax.push(best_i);
                        }
                    }
                }
            }
        }
        (y, argmax)
    }
}

impl Layer for MaxPool2d {
    fn param_len(&self) -> usize {
        0
    }

    fn init_params(&self, _out: &mut [f32], _rng: &mut StdRng) {}

    fn forward(&self, _params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let (y, argmax) = self.pool::<true>(x);
        let mut cache = Cache::new();
        cache.indices = argmax;
        cache.scalars = x.shape().iter().map(|&d| d as f32).collect();
        (y, cache)
    }

    fn forward_no_cache(&self, _params: &[f32], x: &Tensor) -> Tensor {
        self.pool::<false>(x).0
    }

    fn backward_into(&self, _: &[f32], cache: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        let (b, c, h, w) = (
            cache.scalars[0] as usize,
            cache.scalars[1] as usize,
            cache.scalars[2] as usize,
            cache.scalars[3] as usize,
        );
        let mut dx = Tensor::zeros(&[b, c, h, w]);
        for (o, &i) in cache.indices.iter().enumerate() {
            dx.data_mut()[i] += dy.data()[o];
        }
        dx
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        Vec::new()
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], input[1], input[2] / self.window, input[3] / self.window]
    }
}

/// Flattens `(B, ...)` to `(B, prod(...))`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flatten;

impl Layer for Flatten {
    fn param_len(&self) -> usize {
        0
    }

    fn init_params(&self, _out: &mut [f32], _rng: &mut StdRng) {}

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let mut cache = Cache::new();
        cache.indices = x.shape().to_vec();
        (self.forward_no_cache(params, x), cache)
    }

    fn forward_no_cache(&self, _params: &[f32], x: &Tensor) -> Tensor {
        let b = x.shape()[0];
        x.reshape(&[b, x.len() / b])
    }

    fn backward_into(&self, _: &[f32], cache: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        dy.reshape(&cache.indices)
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        Vec::new()
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], input[1..].iter().product()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn global_avg_pool_values() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let (y, _) = GlobalAvgPool2d.forward(&[], &x);
        assert_eq!(y.data(), &[1.5, 5.5]);
    }

    #[test]
    fn global_avg_pool_gradcheck() {
        check_layer_gradients(&GlobalAvgPool2d, &[2, 3, 4, 4], 41, 5e-2);
    }

    #[test]
    fn maxpool_values_and_routing() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let pool = MaxPool2d::new(2);
        let (y, cache) = pool.forward(&[], &x);
        assert_eq!(y.data(), &[4.0]);
        let (dx, _) = pool.backward(&[], &cache, &Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_gradcheck() {
        check_layer_gradients(&MaxPool2d::new(2), &[2, 2, 4, 4], 42, 5e-2);
    }

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2]);
        let (y, cache) = Flatten.forward(&[], &x);
        assert_eq!(y.shape(), &[2, 6]);
        let (dx, _) = Flatten.backward(&[], &cache, &y);
        assert_eq!(dx, x);
    }
}
