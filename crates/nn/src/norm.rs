//! Normalization layers: batch norm, layer norm, group norm.
//!
//! All three share the same per-slice recipe: normalize to zero mean and
//! unit variance over a statistics slice, then apply a learned affine
//! transform `y = γ·x̂ + β`. They differ only in which elements form a
//! slice.

use rand::rngs::StdRng;

use pipemare_tensor::fold::{self, FoldDims};
use pipemare_tensor::{kernels, Tensor};

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

const EPS: f32 = 1e-5;

/// Per-slice mean and `1/√(var + ε)`: two statistics folds. The second
/// vector has room for `spare` more values, the forward `γ | β` a cache
/// appends.
fn statistics(dims: FoldDims, x: &[f32], spare: usize) -> (Vec<f32>, Vec<f32>) {
    let level = kernels::simd_level();
    let n = dims.slice_len() as f32;
    let mut means = vec![0.0f32; dims.slices];
    fold::sum(level, dims, x, &mut means);
    means.iter_mut().for_each(|m| *m /= n);
    let mut inv_stds = Vec::with_capacity(dims.slices + spare);
    inv_stds.resize(dims.slices, 0.0f32);
    fold::sq_dev(level, dims, x, &means, &mut inv_stds);
    inv_stds.iter_mut().for_each(|v| *v = 1.0 / (*v / n + EPS).sqrt());
    (means, inv_stds)
}

/// `γ·x̂ + β`, clamped at zero with `RELU`: the one expression a
/// per-channel norm's output is made by, in the forward pass and when a
/// composite rebuilds that output from the cache.
fn affine<const RELU: bool>(gamma: f32, beta: f32, h: f32) -> f32 {
    let pre = gamma * h + beta;
    if RELU {
        pre.max(0.0)
    } else {
        pre
    }
}

/// `x̂ = (x − mean)·inv_std` and `y = γ·x̂ + β`, `plane` values at a time:
/// run `k` takes its statistics from slice `slice_of(k)` and its affine
/// pair from channel `k % channels`; `RELU` clamps `y` at zero. With
/// `XHAT`, `x̂` is appended to a reserved vector and `y` reads it back
/// while it is in L1; without, `x̂` stays in a register. Outputs are
/// written once, not cleared and then written.
fn normalize<const RELU: bool, const XHAT: bool>(
    x: &Tensor,
    plane: usize,
    slice_of: impl Fn(usize) -> usize,
    (means, inv_stds): (&[f32], &[f32]),
    params: &[f32],
) -> (Tensor, Option<Tensor>) {
    let c = params.len() / 2;
    let mut xhat = Vec::with_capacity(if XHAT { x.len() } else { 0 });
    let mut y = Vec::with_capacity(x.len());
    for (k, x_run) in x.data().chunks_exact(plane).enumerate() {
        let (s, ci) = (slice_of(k), k % c);
        let (mean, inv_std, gamma, beta) = (means[s], inv_stds[s], params[ci], params[c + ci]);
        if XHAT {
            xhat.extend(x_run.iter().map(|&v| (v - mean) * inv_std));
            y.extend(xhat[k * plane..].iter().map(|&h| affine::<RELU>(gamma, beta, h)));
        } else {
            y.extend(x_run.iter().map(|&v| affine::<RELU>(gamma, beta, (v - mean) * inv_std)));
        }
    }
    (Tensor::from_vec(y, x.shape()), XHAT.then(|| Tensor::from_vec(xhat, x.shape())))
}

/// `γ·x̂ + β` over whole rows of `x̂`, appended to `y`: `LayerNorm`'s
/// output, in the forward pass and when a composite rebuilds it.
fn affine_rows(xhat: &[f32], (gamma, beta): (&[f32], &[f32]), y: &mut Vec<f32>) {
    for row in xhat.chunks_exact(gamma.len()) {
        y.extend(row.iter().zip(gamma.iter().zip(beta)).map(|(&h, (&g, &b))| g * h + b));
    }
}

/// The last pass of a backward whose slices are contiguous (`outer` 1):
/// `dx` holds `dx̂` and becomes `inv_std · (dx̂ − mean(dx̂) − x̂ ·
/// mean(dx̂·x̂))`, the means per slice.
fn finish_dx(dims: FoldDims, inv_stds: &[f32], xhat: &[f32], dx: &mut [f32]) {
    debug_assert_eq!(dims.outer, 1);
    let n = dims.run as f32;
    let mut sums = vec![0.0f32; 2 * dims.slices];
    let (sum_d, sum_dx) = sums.split_at_mut(dims.slices);
    fold::dot(kernels::simd_level(), dims, dx, xhat, sum_d, sum_dx);
    for (s, (dx_run, xhat_run)) in
        dx.chunks_exact_mut(dims.run).zip(xhat.chunks_exact(dims.run)).enumerate()
    {
        let (inv_std, mean_d, mean_dx) = (inv_stds[s], sum_d[s] / n, sum_dx[s] / n);
        for (d, &h) in dx_run.iter_mut().zip(xhat_run) {
            *d = inv_std * (*d - mean_d - h * mean_dx);
        }
    }
}

/// Batch normalization over `(B, C, H, W)` inputs, per channel.
///
/// This implementation always uses the statistics of the current batch
/// (both when training and when evaluating); the paper's experiments use
/// microbatch sizes large enough for batch statistics to be meaningful
/// (§4.1 "Microbatch Size"), and at the scale of this reproduction
/// evaluation batches are comparably sized, so running statistics are not
/// maintained. Parameters are `[γ (C) | β (C)]`, initialized to 1 and 0.
///
/// [`with_relu`](Self::with_relu) makes the layer own the ReLU behind it:
/// the clamp costs no pass and no cached copy. The cache is `x̂` and, in
/// its scalars, `1/σ (C)` followed by the *forward* `γ (C) | β (C)`: the
/// backward pass is handed other weights (`u_bkwd`), so the fused layer
/// regenerates the ReLU mask from `γ_fwd·x̂ + β_fwd`, the operations that
/// produced the pre-activation, and a composite whose next layer reads
/// this layer's output rebuilds it from the cache instead of keeping it
/// (`BasicBlock`'s second convolution).
#[derive(Clone, Copy, Debug)]
pub struct BatchNorm2d {
    /// Number of channels.
    pub channels: usize,
    relu: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d { channels, relu: false }
    }

    /// Batch-norm followed by ReLU, as one layer: equal bit for bit, in
    /// `y`, `dx`, `dγ` and `dβ`, to [`BatchNorm2d::new`] chained with
    /// [`crate::Activation::relu`].
    pub fn with_relu(channels: usize) -> Self {
        BatchNorm2d { channels, relu: true }
    }

    /// `(B, C, H·W)`: every `(b, c)` pair owns one contiguous run.
    fn dims(&self, shape: &[usize]) -> FoldDims {
        assert_eq!(shape[1], self.channels, "BatchNorm2d: channel mismatch");
        FoldDims { outer: shape[0], slices: shape[1], run: shape[2] * shape[3] }
    }

    /// Both passes: `y`, with `XHAT` also `x̂`, and `1/σ` per channel.
    fn normalize<const XHAT: bool>(
        &self,
        params: &[f32],
        x: &Tensor,
    ) -> (Tensor, Option<Tensor>, Vec<f32>) {
        assert_eq!(x.ndim(), 4, "BatchNorm2d input must be (B,C,H,W)");
        let dims = self.dims(x.shape());
        let c = self.channels;
        let spare = if XHAT { params.len() } else { 0 };
        let (means, inv_stds) = statistics(dims, x.data(), spare);
        let stats = (&means[..], &inv_stds[..]);
        let (y, xhat) = if self.relu {
            normalize::<true, XHAT>(x, dims.run, |k| k % c, stats, params)
        } else {
            normalize::<false, XHAT>(x, dims.run, |k| k % c, stats, params)
        };
        (y, xhat, inv_stds)
    }

    /// The forward pass's output, rebuilt from its cache by the
    /// expression that made it — `γ_fwd·x̂ + β_fwd`, clamped for the
    /// fused layer — so equal to it bit for bit: for a composite whose
    /// next layer needs this output in its backward pass.
    pub(crate) fn output_from_cache(&self, cache: &Cache) -> Tensor {
        let xhat = cache.tensor(0);
        let (c, run) = (self.channels, self.dims(xhat.shape()).run);
        let (gamma, beta) = cache.scalars[c..].split_at(c);
        let mut y = Vec::with_capacity(xhat.len());
        for (k, xhat_run) in xhat.data().chunks_exact(run).enumerate() {
            let (g, b) = (gamma[k % c], beta[k % c]);
            if self.relu {
                y.extend(xhat_run.iter().map(|&h| affine::<true>(g, b, h)));
            } else {
                y.extend(xhat_run.iter().map(|&h| affine::<false>(g, b, h)));
            }
        }
        Tensor::from_vec(y, xhat.shape())
    }
}

impl Layer for BatchNorm2d {
    fn param_len(&self) -> usize {
        2 * self.channels
    }

    fn init_params(&self, out: &mut [f32], _rng: &mut StdRng) {
        out[..self.channels].fill(1.0); // gamma
        out[self.channels..].fill(0.0); // beta
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let (y, xhat, mut inv_stds) = self.normalize::<true>(params, x);
        let mut cache = Cache::with_tensors(vec![xhat.expect("x̂ is kept")]);
        inv_stds.extend_from_slice(params);
        cache.scalars = inv_stds;
        (y, cache)
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.normalize::<false>(params, x).0
    }

    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let xhat = cache.tensor(0).data();
        let dims = self.dims(dy.shape());
        let c = self.channels;
        let n = dims.slice_len() as f32;
        let (inv_stds, fwd_params) = cache.scalars.split_at(c);
        // `dx` starts as the gradient behind the fused ReLU: `dy` times 1.0
        // where the pre-activation — recomputed from x̂ and the forward γ, β
        // by the operations that produced it — was positive, times 0.0
        // where it was not; `dy` itself for the plain layer.
        let mut dx = Vec::with_capacity(dy.len());
        if self.relu {
            let (gamma_fwd, beta_fwd) = fwd_params.split_at(c);
            let runs = dy.data().chunks_exact(dims.run).zip(xhat.chunks_exact(dims.run));
            for (k, (dy_run, xhat_run)) in runs.enumerate() {
                let (gf, bf) = (gamma_fwd[k % c], beta_fwd[k % c]);
                let passed = |h: f32| if gf * h + bf > 0.0 { 1.0 } else { 0.0 };
                dx.extend(dy_run.iter().zip(xhat_run).map(|(&g, &h)| g * passed(h)));
            }
        } else {
            dx.extend_from_slice(dy.data());
        }
        // Per channel: [dγ, dβ | Σ dx̂, Σ dx̂·x̂] with dx̂ = g·γ (backward-pass γ).
        let mut sums = vec![0.0f32; 2 * c];
        let (dgamma, dbeta) = grads.split_at_mut(c);
        let (sum_d, sum_dx) = sums.split_at_mut(c);
        let out = [dgamma, dbeta, &mut *sum_d, &mut *sum_dx];
        fold::norm_grad(kernels::simd_level(), dims, &dx, xhat, &params[..c], out);
        // dx = inv_std * (dx̂ - mean(dx̂) - x̂ * mean(dx̂·x̂)), in place.
        let runs = dx.chunks_exact_mut(dims.run).zip(xhat.chunks_exact(dims.run));
        for (k, (dx_run, xhat_run)) in runs.enumerate() {
            let ci = k % c;
            let (gamma, inv_std) = (params[ci], inv_stds[ci]);
            let (mean_d, mean_dx) = (sum_d[ci] / n, sum_dx[ci] / n);
            for (d, &h) in dx_run.iter_mut().zip(xhat_run) {
                *d = inv_std * (*d * gamma - mean_d - h * mean_dx);
            }
        }
        Tensor::from_vec(dx, dy.shape())
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        vec![WeightUnit { name: "bn".into(), offset: 0, len: self.param_len() }]
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

/// Layer normalization over the last axis of any-rank input.
///
/// Parameters are `[γ (D) | β (D)]`. The cache is `x̂` and, in its
/// scalars, `1/σ` per row followed by the *forward* `γ | β`, from which
/// a composite rebuilds the output its next layer reads
/// (the Transformer's feed-forward input and cross-attention query).
#[derive(Clone, Copy, Debug)]
pub struct LayerNorm {
    /// Size of the normalized (last) axis.
    pub dim: usize,
}

impl LayerNorm {
    /// Creates a layer-norm over the trailing `dim` features.
    pub fn new(dim: usize) -> Self {
        LayerNorm { dim }
    }

    /// Every row is one slice.
    fn dims(&self, len: usize) -> FoldDims {
        FoldDims { outer: 1, slices: len / self.dim, run: self.dim }
    }

    /// Both passes: `y`, with `XHAT` also `x̂`, and `1/σ` per row; `x̂`
    /// is written out, and read back, only with `XHAT`.
    fn normalize<const XHAT: bool>(
        &self,
        params: &[f32],
        x: &Tensor,
    ) -> (Tensor, Option<Tensor>, Vec<f32>) {
        let d = self.dim;
        assert_eq!(*x.shape().last().unwrap(), d, "LayerNorm: last dim mismatch");
        let spare = if XHAT { params.len() } else { 0 };
        let (means, inv_stds) = statistics(self.dims(x.len()), x.data(), spare);
        let (gamma, beta) = params.split_at(d);
        let mut xhat = Vec::with_capacity(if XHAT { x.len() } else { 0 });
        let mut y = Vec::with_capacity(x.len());
        for (r, row) in x.data().chunks_exact(d).enumerate() {
            let (mean, inv_std) = (means[r], inv_stds[r]);
            if XHAT {
                xhat.extend(row.iter().map(|&v| (v - mean) * inv_std));
                affine_rows(&xhat[r * d..], (gamma, beta), &mut y);
            } else {
                let affine = gamma.iter().zip(beta);
                y.extend(
                    row.iter().zip(affine).map(|(&v, (&g, &b))| g * ((v - mean) * inv_std) + b),
                );
            }
        }
        let y = Tensor::from_vec(y, x.shape());
        (y, XHAT.then(|| Tensor::from_vec(xhat, x.shape())), inv_stds)
    }

    /// The forward pass's output, rebuilt from its cache by the
    /// expression that made it, `γ_fwd·x̂ + β_fwd`, so equal to it bit
    /// for bit: for a composite whose next layer needs this output in its
    /// backward pass.
    pub(crate) fn output_from_cache(&self, cache: &Cache) -> Tensor {
        let xhat = cache.tensor(0);
        let fwd_params = cache.scalars[xhat.len() / self.dim..].split_at(self.dim);
        let mut y = Vec::with_capacity(xhat.len());
        affine_rows(xhat.data(), fwd_params, &mut y);
        Tensor::from_vec(y, xhat.shape())
    }
}

impl Layer for LayerNorm {
    fn param_len(&self) -> usize {
        2 * self.dim
    }

    fn init_params(&self, out: &mut [f32], _rng: &mut StdRng) {
        out[..self.dim].fill(1.0);
        out[self.dim..].fill(0.0);
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let (y, xhat, mut inv_stds) = self.normalize::<true>(params, x);
        let mut cache = Cache::with_tensors(vec![xhat.expect("x̂ is kept")]);
        inv_stds.extend_from_slice(params);
        cache.scalars = inv_stds;
        (y, cache)
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.normalize::<false>(params, x).0
    }

    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let d = self.dim;
        let xhat = cache.tensor(0).data();
        let (dgamma, dbeta) = grads.split_at_mut(d);
        // dγ/dβ accumulate row by row; `dx` starts as dx̂ = dy·γ.
        let mut dx = Vec::with_capacity(dy.len());
        for (dy_row, xhat_row) in dy.data().chunks_exact(d).zip(xhat.chunks_exact(d)) {
            for (((dg, db), &g), &h) in
                dgamma.iter_mut().zip(dbeta.iter_mut()).zip(dy_row).zip(xhat_row)
            {
                *dg += g * h;
                *db += g;
            }
            dx.extend(dy_row.iter().zip(&params[..d]).map(|(&g, &gamma)| g * gamma));
        }
        let dims = self.dims(dy.len());
        finish_dx(dims, &cache.scalars[..dims.slices], xhat, &mut dx);
        Tensor::from_vec(dx, dy.shape())
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        vec![WeightUnit { name: "ln".into(), offset: 0, len: self.param_len() }]
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

/// Group normalization over `(B, C, H, W)` inputs.
///
/// Channels are split into `groups`; statistics are computed per
/// `(batch, group)` slice, which makes the layer independent of batch
/// size (the alternative the paper cites \[24\] for small microbatches).
#[derive(Clone, Copy, Debug)]
pub struct GroupNorm {
    /// Number of channels.
    pub channels: usize,
    /// Number of groups (`channels % groups == 0`).
    pub groups: usize,
}

impl GroupNorm {
    /// Creates a group-norm layer.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not divisible by `groups`.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert_eq!(
            channels % groups,
            0,
            "GroupNorm: {channels} channels not divisible by {groups} groups"
        );
        GroupNorm { channels, groups }
    }

    /// `(plane, slices)`: `H·W`, and one slice per `(image, group)` — the
    /// group's channels lie side by side, so a slice is one run.
    fn dims(&self, shape: &[usize]) -> (usize, FoldDims) {
        let (b, c, plane) = (shape[0], shape[1], shape[2] * shape[3]);
        assert_eq!(c, self.channels, "GroupNorm: channel mismatch");
        let slices = FoldDims { outer: 1, slices: b * self.groups, run: c / self.groups * plane };
        (plane, slices)
    }

    /// Both passes: `y`, with `XHAT` also `x̂`, and `1/σ` per slice.
    fn normalize<const XHAT: bool>(
        &self,
        params: &[f32],
        x: &Tensor,
    ) -> (Tensor, Option<Tensor>, Vec<f32>) {
        assert_eq!(x.ndim(), 4, "GroupNorm input must be (B,C,H,W)");
        let (plane, dims) = self.dims(x.shape());
        let per = self.channels / self.groups;
        let (means, inv_stds) = statistics(dims, x.data(), 0);
        // Run `k` is channel `k % c` of image `k / c`, in slice `k / per`.
        let stats = (&means[..], &inv_stds[..]);
        let (y, xhat) = normalize::<false, XHAT>(x, plane, |k| k / per, stats, params);
        (y, xhat, inv_stds)
    }
}

impl Layer for GroupNorm {
    fn param_len(&self) -> usize {
        2 * self.channels
    }

    fn init_params(&self, out: &mut [f32], _rng: &mut StdRng) {
        out[..self.channels].fill(1.0);
        out[self.channels..].fill(0.0);
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let (y, xhat, inv_stds) = self.normalize::<true>(params, x);
        let mut cache = Cache::with_tensors(vec![xhat.expect("x̂ is kept")]);
        cache.scalars = inv_stds;
        (y, cache)
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.normalize::<false>(params, x).0
    }

    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let xhat = cache.tensor(0).data();
        let (plane, dims) = self.dims(dy.shape());
        let c = self.channels;
        // dγ/dβ are per channel: batch-norm's slices.
        let (dgamma, dbeta) = grads.split_at_mut(c);
        let channels = FoldDims { outer: dy.shape()[0], slices: c, run: plane };
        fold::dot(kernels::simd_level(), channels, dy.data(), xhat, dbeta, dgamma);
        let mut dx = Vec::with_capacity(dy.len());
        for (k, dy_run) in dy.data().chunks_exact(plane).enumerate() {
            let gamma = params[k % c];
            dx.extend(dy_run.iter().map(|&g| g * gamma));
        }
        finish_dx(dims, &cache.scalars, xhat, &mut dx);
        Tensor::from_vec(dx, dy.shape())
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        vec![WeightUnit { name: "gn".into(), offset: 0, len: self.param_len() }]
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, init_layer};
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn batchnorm_normalizes_channels() {
        let bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let params = init_layer(&bn, &mut rng);
        let x = Tensor::randn(&[4, 2, 3, 3], &mut rng).add_scalar(5.0);
        let (y, _) = bn.forward(&params, &x);
        // Each channel of the output has ~0 mean and ~1 variance.
        for ci in 0..2 {
            let mut vals = Vec::new();
            for bi in 0..4 {
                for hy in 0..3 {
                    for wx in 0..3 {
                        vals.push(y.at(&[bi, ci, hy, wx]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    /// Normalizes the slices of `x` named by index lists, returning `x̂`
    /// and per-slice `inv_std`: what all three layers ran on before the
    /// folds of [`pipemare_tensor::fold`], kept as their oracle.
    fn normalize_slices(x: &Tensor, slice_elems: &[Vec<usize>]) -> (Tensor, Vec<f32>) {
        let mut xhat = x.clone();
        let mut inv_stds = Vec::with_capacity(slice_elems.len());
        for elems in slice_elems {
            let n = elems.len() as f32;
            let mean: f32 = elems.iter().map(|&i| x.data()[i]).sum::<f32>() / n;
            let var: f32 = elems
                .iter()
                .map(|&i| {
                    let d = x.data()[i] - mean;
                    d * d
                })
                .sum::<f32>()
                / n;
            let inv_std = 1.0 / (var + EPS).sqrt();
            for &i in elems {
                xhat.data_mut()[i] = (x.data()[i] - mean) * inv_std;
            }
            inv_stds.push(inv_std);
        }
        (xhat, inv_stds)
    }

    /// Backward through normalization for one slice:
    /// `dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))`.
    fn normalize_backward_slice(
        dxhat: &[f32],
        xhat: &[f32],
        elems: &[usize],
        inv_std: f32,
        dx: &mut [f32],
    ) {
        let n = elems.len() as f32;
        let mut sum_d = 0.0f32;
        let mut sum_dx = 0.0f32;
        for (k, &i) in elems.iter().enumerate() {
            sum_d += dxhat[k];
            sum_dx += dxhat[k] * xhat[i];
        }
        let mean_d = sum_d / n;
        let mean_dx = sum_dx / n;
        for (k, &i) in elems.iter().enumerate() {
            dx[i] = inv_std * (dxhat[k] - mean_d - xhat[i] * mean_dx);
        }
    }

    /// A normalisation layer over index lists: `slices` are the statistics
    /// slices, `affine(i)` is where element `i` finds its `γ` (its `β` lies
    /// `params.len() / 2` further), and `dγ`/`dβ` accumulate in flat
    /// element order. Returns `(y, dx, grads)`.
    fn by_index_lists(
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
        slices: &[Vec<usize>],
        affine: impl Fn(usize) -> usize,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let half = params.len() / 2;
        let (xhat, inv_stds) = normalize_slices(x, slices);
        let mut y = xhat.clone();
        let mut grads = vec![0.0f32; params.len()];
        for i in 0..x.len() {
            let (p, g) = (affine(i), dy.data()[i]);
            y.data_mut()[i] = params[p] * xhat.data()[i] + params[half + p];
            grads[p] += g * xhat.data()[i];
            grads[half + p] += g;
        }
        let mut dx = vec![0.0f32; dy.len()];
        for (elems, &inv_std) in slices.iter().zip(&inv_stds) {
            let dxhat: Vec<f32> = elems.iter().map(|&i| dy.data()[i] * params[affine(i)]).collect();
            normalize_backward_slice(&dxhat, xhat.data(), elems, inv_std, &mut dx);
        }
        (y, Tensor::from_vec(dx, dy.shape()), grads)
    }

    /// `BatchNorm2d` as it was while it gathered each channel through an
    /// index list.
    fn batchnorm_by_index_lists(
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let (b, c, run) = (x.shape()[0], x.shape()[1], x.shape()[2] * x.shape()[3]);
        let slices: Vec<Vec<usize>> = (0..c)
            .map(|ci| (0..b).flat_map(|bi| (bi * c + ci) * run..(bi * c + ci + 1) * run).collect())
            .collect();
        by_index_lists(params, x, dy, &slices, |i| i / run % c)
    }

    /// `GroupNorm` as it was: one index list per `(image, group)`.
    fn groupnorm_by_index_lists(
        groups: usize,
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let (c, run) = (x.shape()[1], x.shape()[2] * x.shape()[3]);
        let group = c / groups * run;
        let slices: Vec<Vec<usize>> =
            (0..x.len() / group).map(|s| (s * group..(s + 1) * group).collect()).collect();
        by_index_lists(params, x, dy, &slices, |i| i / run % c)
    }

    /// `LayerNorm` as it was: one index list per row.
    fn layernorm_by_index_lists(
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let d = params.len() / 2;
        let slices: Vec<Vec<usize>> =
            (0..x.len() / d).map(|r| (r * d..(r + 1) * d).collect()).collect();
        by_index_lists(params, x, dy, &slices, |i| i % d)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Forward and backward of `layer`, against `want = (y, dx, grads)`.
    fn assert_layer_bits(
        layer: &dyn Layer,
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
        want: (Tensor, Tensor, Vec<f32>),
    ) {
        let (y, cache) = layer.forward(params, x);
        let (dx, grads) = layer.backward(params, &cache, dy);
        assert_eq!(bits(y.data()), bits(want.0.data()), "y");
        assert_eq!(bits(dx.data()), bits(want.1.data()), "dx");
        assert_eq!(bits(&grads), bits(&want.2), "grads");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Channel counts on both sides of every tier's lane count and
        /// planes off every multiple of it, so full and ragged blocks of
        /// slices and run tails are all exercised.
        #[test]
        fn batchnorm_keeps_the_index_list_bits(
            b in 1usize..5,
            c in 1usize..40,
            h in 1usize..6,
            w in 1usize..6,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = Tensor::randn(&[2 * c], &mut rng).into_vec();
            let x = Tensor::randn(&[b, c, h, w], &mut rng).scale(2.0).add_scalar(0.5);
            let dy = Tensor::randn(x.shape(), &mut rng);
            let want = batchnorm_by_index_lists(&params, &x, &dy);
            assert_layer_bits(&BatchNorm2d::new(c), &params, &x, &dy, want);
        }

        #[test]
        fn groupnorm_keeps_the_index_list_bits(
            b in 1usize..20,
            groups in 1usize..5,
            per in 1usize..4,
            h in 1usize..6,
            w in 1usize..6,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = groups * per;
            let params = Tensor::randn(&[2 * c], &mut rng).into_vec();
            let x = Tensor::randn(&[b, c, h, w], &mut rng).scale(2.0).add_scalar(0.5);
            let dy = Tensor::randn(x.shape(), &mut rng);
            let want = groupnorm_by_index_lists(groups, &params, &x, &dy);
            assert_layer_bits(&GroupNorm::new(c, groups), &params, &x, &dy, want);
        }

        #[test]
        fn layernorm_keeps_the_index_list_bits(
            rows in 1usize..40,
            d in 1usize..40,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = Tensor::randn(&[2 * d], &mut rng).into_vec();
            let x = Tensor::randn(&[rows, d], &mut rng).scale(2.0).add_scalar(0.5);
            let dy = Tensor::randn(x.shape(), &mut rng);
            let want = layernorm_by_index_lists(&params, &x, &dy);
            assert_layer_bits(&LayerNorm::new(d), &params, &x, &dy, want);
        }

        /// The fused layer against the chain it replaces, the backward
        /// pass on other weights than the forward pass — as the pipeline
        /// runs it — and with the values a mask can get wrong: `γ = 0`
        /// under `β = ±0.0` (pre-activations of both zeros), a NaN `β`, an
        /// infinite `dy`.
        #[test]
        fn batchnorm_with_relu_equals_batchnorm_then_relu(
            b in 1usize..5,
            c in 1usize..40,
            h in 1usize..6,
            w in 1usize..6,
            seed in 0u64..1000,
        ) {
            use crate::activation::Activation;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fwd = Tensor::randn(&[2 * c], &mut rng).into_vec();
            let bwd = Tensor::randn(&[2 * c], &mut rng).into_vec();
            for (ci, beta) in [0.0, -0.0, f32::NAN].into_iter().enumerate().take(c) {
                (fwd[ci], fwd[c + ci]) = (0.0, beta);
            }
            let x = Tensor::randn(&[b, c, h, w], &mut rng).scale(2.0).add_scalar(0.5);
            let mut dy = Tensor::randn(x.shape(), &mut rng);
            dy.data_mut()[0] = f32::INFINITY;
            let (bn, relu) = (BatchNorm2d::new(c), Activation::relu());
            let (pre, bn_cache) = bn.forward(&fwd, &x);
            let (want_y, relu_cache) = relu.forward(&[], &pre);
            let (dpre, _) = relu.backward(&[], &relu_cache, &dy);
            let (want_dx, want_grads) = bn.backward(&bwd, &bn_cache, &dpre);
            let fused = BatchNorm2d::with_relu(c);
            let (y, cache) = fused.forward(&fwd, &x);
            let (dx, grads) = fused.backward(&bwd, &cache, &dy);
            prop_assert_eq!(bits(y.data()), bits(want_y.data()), "y");
            prop_assert_eq!(bits(dx.data()), bits(want_dx.data()), "dx");
            prop_assert_eq!(bits(&grads), bits(&want_grads), "grads");
            prop_assert_eq!(cache.activation_bytes(), bn_cache.activation_bytes());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// What a composite rebuilds from a norm's cache is the forward
        /// pass's output, bit for bit: with NaN, ±∞ and −0.0 among the
        /// inputs (their slices' statistics go non-finite) and among the
        /// affine pairs (`γ = ±0` under `β = ±0.0` makes zeros of either
        /// sign, which the ReLU clamps; a NaN `β`).
        #[test]
        fn outputs_rebuilt_from_the_cache_keep_their_bits(
            b in 1usize..4,
            c in 1usize..40,
            h in 1usize..6,
            w in 1usize..6,
            at in 0usize..1000,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut params = Tensor::randn(&[2 * c], &mut rng).into_vec();
            let affine = [(0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (1.0, f32::NAN)];
            for (ci, (gamma, beta)) in affine.into_iter().enumerate().take(c) {
                (params[ci], params[c + ci]) = (gamma, beta);
            }
            let mut x = Tensor::randn(&[b, c, h, w], &mut rng).scale(2.0).add_scalar(0.5);
            let len = x.len();
            for (k, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0].into_iter().enumerate() {
                x.data_mut()[(at + 7 * k) % len] = v;
            }
            for bn in [BatchNorm2d::new(c), BatchNorm2d::with_relu(c)] {
                let (y, cache) = bn.forward(&params, &x);
                let rebuilt = bn.output_from_cache(&cache);
                prop_assert_eq!(rebuilt.shape(), y.shape());
                prop_assert_eq!(bits(rebuilt.data()), bits(y.data()), "relu {}", bn.relu);
            }
            // Rows of `c` features, in a 3-D tensor as the Transformer's.
            let (ln, x) = (LayerNorm::new(c), x.reshaped(&[b, h * w, c]));
            let (y, cache) = ln.forward(&params, &x);
            let rebuilt = ln.output_from_cache(&cache);
            prop_assert_eq!(rebuilt.shape(), y.shape());
            prop_assert_eq!(bits(rebuilt.data()), bits(y.data()), "layer norm");
        }
    }

    #[test]
    fn batchnorm_gradcheck() {
        check_layer_gradients(&BatchNorm2d::new(3), &[4, 3, 2, 2], 31, 5e-2);
    }

    #[test]
    fn layernorm_rows_normalized() {
        let ln = LayerNorm::new(8);
        let mut rng = StdRng::seed_from_u64(1);
        let params = init_layer(&ln, &mut rng);
        let x = Tensor::randn(&[5, 8], &mut rng).scale(3.0).add_scalar(-2.0);
        let (y, _) = ln.forward(&params, &x);
        for r in 0..5 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        check_layer_gradients(&LayerNorm::new(6), &[3, 6], 32, 5e-2);
    }

    #[test]
    fn layernorm_gradcheck_3d() {
        check_layer_gradients(&LayerNorm::new(4), &[2, 3, 4], 33, 5e-2);
    }

    #[test]
    fn groupnorm_gradcheck() {
        check_layer_gradients(&GroupNorm::new(4, 2), &[2, 4, 3, 3], 34, 5e-2);
    }

    #[test]
    fn groupnorm_single_group_is_instance_wide() {
        // groups == 1 normalizes over all channels together per batch item.
        let gn = GroupNorm::new(2, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let params = init_layer(&gn, &mut rng);
        let x = Tensor::randn(&[2, 2, 2, 2], &mut rng);
        let (y, _) = gn.forward(&params, &x);
        for bi in 0..2 {
            let mut vals = Vec::new();
            for ci in 0..2 {
                for hy in 0..2 {
                    for wx in 0..2 {
                        vals.push(y.at(&[bi, ci, hy, wx]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn groupnorm_invalid_groups() {
        GroupNorm::new(5, 2);
    }
}
