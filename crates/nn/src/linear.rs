//! Fully connected layer.

use rand::rngs::StdRng;

use pipemare_tensor::{kernels, Tensor};

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

/// A fully connected layer: `y = x · W + b` with `W: (in, out)`.
///
/// Input may be `(batch, in)` or any `(..., in)` shape; leading dimensions
/// are flattened for the matmul and restored afterwards.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Whether a bias is added.
    pub bias: bool,
}

impl Linear {
    /// Creates a linear layer with bias.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        Linear { in_features, out_features, bias: true }
    }

    /// Creates a linear layer without bias.
    pub fn new_no_bias(in_features: usize, out_features: usize) -> Self {
        Linear { in_features, out_features, bias: false }
    }

    fn weight_len(&self) -> usize {
        self.in_features * self.out_features
    }

    fn split<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32]) {
        params.split_at(self.weight_len())
    }

    /// Flattens `(..., in)` to `(rows, in)`, returning rows.
    fn rows_of(&self, x: &Tensor) -> usize {
        assert_eq!(
            *x.shape().last().expect("Linear input must have rank >= 1"),
            self.in_features,
            "Linear: input last dim {:?} != in_features {}",
            x.shape(),
            self.in_features
        );
        x.len() / self.in_features
    }

    /// [`Layer::backward_into`] with the forward pass's input `x` (any
    /// `(..., in)` shape) handed in by a composite that rebuilds it
    /// instead of keeping it in this layer's cache.
    pub(crate) fn backward_with_input(
        &self,
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        // dx = dy @ W^T with the backward-pass weights (u_bkwd). W is
        // (in, out), so dx[i, j] = Σ_o dy[i, o] · W[j, o] reads it as the
        // transposed operand.
        let rows = dy.len() / self.out_features;
        let (w, _) = self.split(params);
        let mut dx2 = Tensor::zeros(&[rows, self.in_features]);
        kernels::gemm_nt(dy.data(), w, dx2.data_mut(), rows, self.out_features, self.in_features);
        self.param_grads_with_input(x, dy, grads);
        let mut in_shape: Vec<usize> = dy.shape().to_vec();
        *in_shape.last_mut().unwrap() = self.in_features;
        dx2.reshaped(&in_shape)
    }

    fn param_grads_with_input(&self, x: &Tensor, dy: &Tensor, grads: &mut [f32]) {
        let rows = self.rows_of(x);
        assert_eq!(dy.len(), rows * self.out_features, "linear backward: dy size mismatch");
        // dW = x^T @ dy (uses forward-pass activations), then db = Σ dy.
        let (dw, db) = grads.split_at_mut(self.weight_len());
        kernels::gemm_tn(x.data(), dy.data(), dw, self.in_features, rows, self.out_features);
        if self.bias {
            add_column_sums(db, dy.data());
        }
    }
}

/// Adds `bias` to every row of a row-major matrix `bias.len()` wide.
pub(crate) fn add_bias_rows(y: &mut [f32], bias: &[f32]) {
    for row in y.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// `db[j] += Σ_r dy[r][j]` over the rows of a matrix `db.len()` wide,
/// rows in order — the bias gradient of a projection.
pub(crate) fn add_column_sums(db: &mut [f32], dy: &[f32]) {
    for row in dy.chunks_exact(db.len()) {
        for (g, &x) in db.iter_mut().zip(row) {
            *g += x;
        }
    }
}

impl Layer for Linear {
    fn param_len(&self) -> usize {
        self.weight_len() + if self.bias { self.out_features } else { 0 }
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let w = Tensor::kaiming(&[self.weight_len()], self.in_features, rng);
        out[..self.weight_len()].copy_from_slice(w.data());
        if self.bias {
            out[self.weight_len()..].fill(0.0);
        }
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let y = self.forward_no_cache(params, x);
        (y, Cache::with_tensors(vec![x.reshape(&[x.len() / self.in_features, self.in_features])]))
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        let rows = self.rows_of(x);
        let (w, b) = self.split(params);
        // Run the kernel on the parameter slice directly — no weight
        // Tensor copy per step.
        let mut y = Tensor::zeros(&[rows, self.out_features]);
        kernels::gemm(x.data(), w, y.data_mut(), rows, self.in_features, self.out_features);
        if self.bias {
            add_bias_rows(y.data_mut(), b);
        }
        y.reshaped(&self.output_shape(x.shape()))
    }

    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        self.backward_with_input(params, cache.tensor(0), dy, grads)
    }

    fn param_grads_into(&self, _: &[f32], cache: &Cache, dy: &Tensor, grads: &mut [f32]) {
        self.param_grads_with_input(cache.tensor(0), dy, grads);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        // Weight and bias stay in one unit (paper §4.1).
        vec![WeightUnit { name: "linear".into(), offset: 0, len: self.param_len() }]
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut out = input.to_vec();
        *out.last_mut().expect("rank >= 1") = self.out_features;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, init_layer};
    use pipemare_conv_oracle::assert_close;
    use rand::SeedableRng;

    #[test]
    fn forward_hand_example() {
        let l = Linear::new(2, 3);
        // W = [[1,2,3],[4,5,6]], b = [0.1, 0.2, 0.3]
        let params = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.1, 0.2, 0.3];
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let (y, _) = l.forward(&params, &x);
        assert_close(y.data(), &[5.1, 7.2, 9.3], 1e-6, 1e-6);
    }

    #[test]
    fn preserves_leading_dims() {
        let l = Linear::new(4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let params = init_layer(&l, &mut rng);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        let (y, cache) = l.forward(&params, &x);
        assert_eq!(y.shape(), &[2, 3, 2]);
        let (dx, _) = l.backward(&params, &cache, &Tensor::full(&[2, 3, 2], 1.0));
        assert_eq!(dx.shape(), &[2, 3, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let l = Linear::new(3, 4);
        check_layer_gradients(&l, &[2, 3], 42, 2e-2);
    }

    #[test]
    fn gradients_no_bias() {
        let l = Linear::new_no_bias(3, 2);
        check_layer_gradients(&l, &[4, 3], 7, 2e-2);
    }

    #[test]
    fn backward_uses_given_params_for_dx() {
        // dx must be computed with the params passed to backward (u_bkwd),
        // not the ones used in forward — the core asynchronous semantics.
        let l = Linear::new_no_bias(2, 2);
        let fwd = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let bkwd = vec![2.0, 0.0, 0.0, 2.0]; // 2 * identity
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let (_, cache) = l.forward(&fwd, &x);
        let dy = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let (dx, dw) = l.backward(&bkwd, &cache, &dy);
        assert_eq!(dx.data(), &[2.0, 2.0]); // dy @ (2I)^T
                                            // dW = x^T dy uses forward activations regardless of bkwd params.
        assert_eq!(dw, vec![1.0, 1.0, 2.0, 2.0]);
    }
}
