//! Linear regression model (used by the Figure 3(b) stability heatmap).

use rand::rngs::StdRng;

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};
use crate::linear::Linear;
use crate::loss::mse_loss;
use crate::model::{RegressionBatch, TrainModel};

/// Least-squares linear regression `y = x·w + b` with MSE loss.
///
/// This is the model behind the paper's Figure 3(b): pipeline-parallel SGD
/// on a 12-dimensional regression problem, whose divergence boundary
/// follows the `α ∝ 1/τ` slope predicted by Lemma 1. It is one [`Linear`],
/// so its only training split is the whole model.
pub struct LinearRegression {
    linear: Linear,
}

impl LinearRegression {
    /// Creates a regression model over `dim` features.
    pub fn new(dim: usize) -> Self {
        LinearRegression { linear: Linear::new(dim, 1) }
    }
}

impl TrainModel for LinearRegression {
    type Batch = RegressionBatch;

    fn param_len(&self) -> usize {
        self.linear.param_len()
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.linear.init_params(out, rng);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        self.linear.weight_units()
    }

    fn forward_loss(&self, params: &[f32], batch: &RegressionBatch) -> (f32, Cache) {
        let (pred, lin_cache) = self.linear.forward(params, &batch.x);
        let b = batch.x.shape()[0];
        let (loss, dpred) = mse_loss(&pred.reshaped(&[b]), &batch.y);
        let mut cache = Cache::new();
        cache.children.push(lin_cache);
        cache.tensors.push(dpred.reshaped(&[b, 1]));
        (loss, cache)
    }

    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32> {
        let mut grads = vec![0.0f32; self.linear.param_len()];
        self.linear.param_grads_into(params, cache.child(0), cache.tensor(0), &mut grads);
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn recovers_true_weights() {
        let dim = 4;
        let model = LinearRegression::new(dim);
        let mut rng = StdRng::seed_from_u64(13);
        let true_w = [1.0f32, -2.0, 0.5, 3.0];
        let x = Tensor::randn(&[64, dim], &mut rng);
        let mut y = Tensor::zeros(&[64]);
        for i in 0..64 {
            y.data_mut()[i] = (0..dim).map(|j| x.at(&[i, j]) * true_w[j]).sum::<f32>() + 0.7;
        }
        let batch = RegressionBatch { x, y };
        let mut params = vec![0.0f32; model.param_len()];
        for _ in 0..500 {
            let (_, cache) = model.forward_loss(&params, &batch);
            let grads = model.backward(&params, &cache);
            for (p, g) in params.iter_mut().zip(grads.iter()) {
                *p -= 0.1 * g;
            }
        }
        for j in 0..dim {
            assert!(
                (params[j] - true_w[j]).abs() < 0.05,
                "w[{j}] = {} vs {}",
                params[j],
                true_w[j]
            );
        }
        assert!((params[dim] - 0.7).abs() < 0.05, "bias {}", params[dim]);
        assert!(model.forward_loss(&params, &batch).0 < 1e-3);
    }
}
