//! Parameterless activation layers.

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

/// Supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
}

/// A parameterless activation layer.
#[derive(Clone, Copy, Debug)]
pub struct Activation {
    /// Which function is applied.
    pub kind: ActivationKind,
}

impl Activation {
    /// ReLU activation layer.
    pub fn relu() -> Self {
        Activation { kind: ActivationKind::Relu }
    }

    /// GELU activation layer.
    pub fn gelu() -> Self {
        Activation { kind: ActivationKind::Gelu }
    }

    /// Tanh activation layer.
    pub fn tanh() -> Self {
        Activation { kind: ActivationKind::Tanh }
    }

    /// [`Layer::forward_no_cache`] into `x`'s own buffer: for a
    /// composite that keeps no copy of the pre-activation.
    pub(crate) fn forward_in_place(&self, x: &mut Tensor) {
        x.map_inplace(|v| self.apply(v));
    }

    /// The ReLU's backward read from its *output* `y` (any shape of the
    /// same length), which the next layer caches anyway: `dy` times `1.0`
    /// where `y > 0` and `0.0` elsewhere. `max(x, 0) > 0` exactly where
    /// `x > 0` (a NaN passes neither), so these are the products
    /// [`Layer::backward_into`] computes from the cached input.
    ///
    /// # Panics
    ///
    /// Panics for any other activation.
    pub(crate) fn relu_backward_from_output(&self, dy: &Tensor, y: &Tensor) -> Tensor {
        assert_eq!(self.kind, ActivationKind::Relu, "only a ReLU's output gives its derivative");
        assert_eq!(dy.len(), y.len(), "ReLU backward: dy and y differ in length");
        let dx = dy.data().iter().zip(y.data()).map(|(&g, &v)| g * self.derivative(v));
        Tensor::from_vec(dx.collect(), dy.shape())
    }

    fn apply(&self, x: f32) -> f32 {
        match self.kind {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Gelu => gelu(x),
            ActivationKind::Tanh => x.tanh(),
        }
    }

    fn derivative(&self, x: f32) -> f32 {
        match self.kind {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Gelu => gelu_grad(x),
            ActivationKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044_715 * x * x * x)).tanh())
}

fn gelu_grad(x: f32) -> f32 {
    let u = GELU_C * (x + 0.044_715 * x * x * x);
    let t = u.tanh();
    let du = GELU_C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

impl Layer for Activation {
    fn param_len(&self) -> usize {
        0
    }

    fn init_params(&self, _out: &mut [f32], _rng: &mut StdRng) {}

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        (self.forward_no_cache(params, x), Cache::with_tensors(vec![x.clone()]))
    }

    fn forward_no_cache(&self, _params: &[f32], x: &Tensor) -> Tensor {
        x.map(|v| self.apply(v))
    }

    fn backward_into(&self, _: &[f32], cache: &Cache, dy: &Tensor, _: &mut [f32]) -> Tensor {
        dy.zip(cache.tensor(0), |g, v| g * self.derivative(v))
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
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn relu_forward() {
        let (y, _) = Activation::relu().forward(&[], &Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        assert_eq!(y.data(), &[0.0, 2.0]);
    }

    #[test]
    fn gelu_known_values() {
        // gelu(0) = 0, gelu(x) -> x for large x, gelu(-x) small.
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        // gelu(1) ~ 0.8412
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn relu_gradcheck() {
        check_layer_gradients(&Activation::relu(), &[3, 5], 1, 5e-2);
    }

    #[test]
    fn gelu_gradcheck() {
        check_layer_gradients(&Activation::gelu(), &[3, 5], 2, 5e-2);
    }

    #[test]
    fn tanh_gradcheck() {
        check_layer_gradients(&Activation::tanh(), &[4, 4], 3, 5e-2);
    }
}
