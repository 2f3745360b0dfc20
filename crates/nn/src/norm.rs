//! Normalization layers: batch norm, layer norm, group norm.
//!
//! All three share the same per-slice recipe: normalize to zero mean and
//! unit variance over a statistics slice, then apply a learned affine
//! transform `y = γ·x̂ + β`. They differ only in which elements form a
//! slice.

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

const EPS: f32 = 1e-5;

/// Normalizes `x[idx(slice)]` slices in place, writing `x̂` and returning
/// per-slice `inv_std`. `slices` enumerates index lists.
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

/// Channels whose sums [`fold_channels`] advances together.
const FOLD_LANES: usize = 16;

/// Per-channel sequential sums over a `(B, C, H·W)` tensor: calls
/// `f(channel, flat index, accumulators)` for every element and returns
/// each channel's `N` accumulators, started at `init`.
///
/// A channel's elements are visited in `(b, h·w)` order and each of its
/// accumulators is one dependency chain, so every sum has the bits of a
/// plain loop over that channel. [`FOLD_LANES`] channels advance side by
/// side only so that their chains overlap in the pipeline instead of each
/// waiting out the adder's latency alone.
fn fold_channels<const N: usize>(
    (b, c, run): (usize, usize, usize),
    init: [f32; N],
    f: impl Fn(usize, usize, &mut [f32; N]),
) -> Vec<[f32; N]> {
    let mut sums = vec![init; c];
    for (group, accs) in sums.chunks_mut(FOLD_LANES).enumerate() {
        let first = group * FOLD_LANES;
        for bi in 0..b {
            for j in 0..run {
                for (lane, acc) in accs.iter_mut().enumerate() {
                    let ci = first + lane;
                    f(ci, (bi * c + ci) * run + j, acc);
                }
            }
        }
    }
    sums
}

/// Batch normalization over `(B, C, H, W)` inputs, per channel.
///
/// This implementation always uses the statistics of the current batch
/// (both when training and when evaluating); the paper's experiments use
/// microbatch sizes large enough for batch statistics to be meaningful
/// (§4.1 "Microbatch Size"), and at the scale of this reproduction
/// evaluation batches are comparably sized, so running statistics are not
/// maintained. Parameters are `[γ (C) | β (C)]`, initialized to 1 and 0.
#[derive(Clone, Copy, Debug)]
pub struct BatchNorm2d {
    /// Number of channels.
    pub channels: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d { channels }
    }

    /// `(B, C, H·W)`: every `(b, c)` pair owns one contiguous run.
    fn dims(&self, shape: &[usize]) -> (usize, usize, usize) {
        assert_eq!(shape[1], self.channels, "BatchNorm2d: channel mismatch");
        (shape[0], shape[1], shape[2] * shape[3])
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
        assert_eq!(x.ndim(), 4, "BatchNorm2d input must be (B,C,H,W)");
        let dims @ (b, c, run) = self.dims(x.shape());
        let n = (b * run) as f32;
        let xd = x.data();
        // −0.0 is the additive identity `Iterator::sum` starts from.
        let sums = fold_channels(dims, [-0.0], |_, i, acc| acc[0] += xd[i]);
        let means: Vec<f32> = sums.iter().map(|s| s[0] / n).collect();
        let sq_devs = fold_channels(dims, [-0.0], |ci, i, acc| {
            let d = xd[i] - means[ci];
            acc[0] += d * d;
        });
        let inv_stds: Vec<f32> = sq_devs.iter().map(|s| 1.0 / (s[0] / n + EPS).sqrt()).collect();
        let mut xhat = Vec::with_capacity(x.len());
        let mut y = Vec::with_capacity(x.len());
        for (k, x_run) in xd.chunks_exact(run).enumerate() {
            let ci = k % c;
            let (mean, inv_std) = (means[ci], inv_stds[ci]);
            let (gamma, beta) = (params[ci], params[c + ci]);
            xhat.extend(x_run.iter().map(|&v| (v - mean) * inv_std));
            y.extend(xhat[k * run..].iter().map(|&h| gamma * h + beta));
        }
        let (xhat, y) = (Tensor::from_vec(xhat, x.shape()), Tensor::from_vec(y, x.shape()));
        let mut cache = Cache::with_tensors(vec![xhat]);
        cache.scalars = inv_stds;
        (y, cache)
    }

    fn backward(&self, params: &[f32], cache: &Cache, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let xhat = cache.tensor(0).data();
        let dims @ (b, c, run) = self.dims(dy.shape());
        let n = (b * run) as f32;
        let dyd = dy.data();
        // Per channel: [dγ, dβ, Σ dx̂, Σ dx̂·x̂] with dx̂ = dy·γ (backward-pass γ).
        let sums = fold_channels(dims, [0.0; 4], |ci, i, acc| {
            let (g, dxhat) = (dyd[i], dyd[i] * params[ci]);
            acc[0] += g * xhat[i];
            acc[1] += g;
            acc[2] += dxhat;
            acc[3] += dxhat * xhat[i];
        });
        let mut grads = vec![0.0f32; self.param_len()];
        for (ci, s) in sums.iter().enumerate() {
            (grads[ci], grads[c + ci]) = (s[0], s[1]);
        }
        // dx = inv_std * (dx̂ - mean(dx̂) - x̂ * mean(dx̂·x̂))
        let mut dx = Vec::with_capacity(dy.len());
        for (k, (dy_run, xhat_run)) in dyd.chunks_exact(run).zip(xhat.chunks_exact(run)).enumerate()
        {
            let ci = k % c;
            let (gamma, inv_std) = (params[ci], cache.scalars[ci]);
            let (mean_d, mean_dx) = (sums[ci][2] / n, sums[ci][3] / n);
            dx.extend(
                dy_run
                    .iter()
                    .zip(xhat_run)
                    .map(|(&g, &h)| inv_std * (g * gamma - mean_d - h * mean_dx)),
            );
        }
        let dx = Tensor::from_vec(dx, dy.shape());
        (dx, grads)
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
/// Parameters are `[γ (D) | β (D)]`.
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
        let d = self.dim;
        assert_eq!(*x.shape().last().unwrap(), d, "LayerNorm: last dim mismatch");
        let rows = x.len() / d;
        let mut xhat = x.clone();
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &mut xhat.data_mut()[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) * inv_std;
            }
            inv_stds.push(inv_std);
        }
        let mut y = xhat.clone();
        for r in 0..rows {
            for j in 0..d {
                let i = r * d + j;
                y.data_mut()[i] = params[j] * xhat.data()[i] + params[d + j];
            }
        }
        let mut cache = Cache::with_tensors(vec![xhat]);
        cache.scalars = inv_stds;
        (y, cache)
    }

    fn backward(&self, params: &[f32], cache: &Cache, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let d = self.dim;
        let xhat = cache.tensor(0);
        let rows = dy.len() / d;
        let mut grads = vec![0.0f32; self.param_len()];
        let mut dx = vec![0.0f32; dy.len()];
        for r in 0..rows {
            let elems: Vec<usize> = (r * d..(r + 1) * d).collect();
            let mut dxhat = Vec::with_capacity(d);
            for (j, &i) in elems.iter().enumerate() {
                let g = dy.data()[i];
                grads[j] += g * xhat.data()[i];
                grads[d + j] += g;
                dxhat.push(g * params[j]);
            }
            normalize_backward_slice(&dxhat, xhat.data(), &elems, cache.scalars[r], &mut dx);
        }
        (Tensor::from_vec(dx, dy.shape()), grads)
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
/// size (the alternative the paper cites [24] for small microbatches).
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

    fn slices(&self, shape: &[usize]) -> Vec<Vec<usize>> {
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.channels, "GroupNorm: channel mismatch");
        let per = c / self.groups;
        let mut out = Vec::with_capacity(b * self.groups);
        for bi in 0..b {
            for g in 0..self.groups {
                let mut v = Vec::with_capacity(per * h * w);
                for ci in g * per..(g + 1) * per {
                    let base = (bi * c + ci) * h * w;
                    v.extend(base..base + h * w);
                }
                out.push(v);
            }
        }
        out
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
        assert_eq!(x.ndim(), 4, "GroupNorm input must be (B,C,H,W)");
        let slices = self.slices(x.shape());
        let (xhat, inv_stds) = normalize_slices(x, &slices);
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let mut y = xhat.clone();
        for bi in 0..b {
            for ci in 0..c {
                let (g, bb) = (params[ci], params[c + ci]);
                let base = (bi * c + ci) * h * w;
                for i in base..base + h * w {
                    y.data_mut()[i] = g * xhat.data()[i] + bb;
                }
            }
        }
        let mut cache = Cache::with_tensors(vec![xhat]);
        cache.scalars = inv_stds;
        cache.indices = x.shape().to_vec();
        (y, cache)
    }

    fn backward(&self, params: &[f32], cache: &Cache, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let xhat = cache.tensor(0);
        let shape = &cache.indices;
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let slices = self.slices(shape);
        let mut grads = vec![0.0f32; self.param_len()];
        // dγ/dβ are per channel.
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                for i in base..base + h * w {
                    grads[ci] += dy.data()[i] * xhat.data()[i];
                    grads[c + ci] += dy.data()[i];
                }
            }
        }
        let mut dx = vec![0.0f32; dy.len()];
        let per = c / self.groups;
        for (si, elems) in slices.iter().enumerate() {
            let bi = si / self.groups;
            let g = si % self.groups;
            let _ = bi;
            let mut dxhat = Vec::with_capacity(elems.len());
            for &i in elems {
                // Recover channel of element i: i = ((bi*c + ci)*h*w + rest)
                let ci = (i / (h * w)) % c;
                debug_assert!(ci >= g * per && ci < (g + 1) * per);
                dxhat.push(dy.data()[i] * params[ci]);
            }
            normalize_backward_slice(&dxhat, xhat.data(), elems, cache.scalars[si], &mut dx);
        }
        (Tensor::from_vec(dx, dy.shape()), grads)
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

    /// `BatchNorm2d` as it was while it still gathered each channel
    /// through an index list (the helpers `GroupNorm` keeps using).
    fn batchnorm_by_index_lists(
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let (b, c, run) = (x.shape()[0], x.shape()[1], x.shape()[2] * x.shape()[3]);
        let slices: Vec<Vec<usize>> = (0..c)
            .map(|ci| (0..b).flat_map(|bi| (bi * c + ci) * run..(bi * c + ci + 1) * run).collect())
            .collect();
        let (xhat, inv_stds) = normalize_slices(x, &slices);
        let mut y = xhat.clone();
        let mut grads = vec![0.0f32; 2 * c];
        let mut dx = vec![0.0f32; dy.len()];
        for (ci, elems) in slices.iter().enumerate() {
            let mut dxhat = Vec::with_capacity(elems.len());
            for &i in elems {
                y.data_mut()[i] = params[ci] * xhat.data()[i] + params[c + ci];
                let g = dy.data()[i];
                grads[ci] += g * xhat.data()[i];
                grads[c + ci] += g;
                dxhat.push(g * params[ci]);
            }
            normalize_backward_slice(&dxhat, xhat.data(), elems, inv_stds[ci], &mut dx);
        }
        (y, Tensor::from_vec(dx, dy.shape()), grads)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Channel counts on both sides of `FOLD_LANES`, so full and
        /// ragged lane groups are both exercised.
        #[test]
        fn batchnorm_keeps_the_index_list_bits(
            b in 1usize..5,
            c in 1usize..40,
            h in 1usize..6,
            w in 1usize..6,
            seed in 0u64..1000,
        ) {
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let mut rng = StdRng::seed_from_u64(seed);
            let bn = BatchNorm2d::new(c);
            let params = Tensor::randn(&[2 * c], &mut rng).into_vec();
            let x = Tensor::randn(&[b, c, h, w], &mut rng).scale(2.0).add_scalar(0.5);
            let dy = Tensor::randn(x.shape(), &mut rng);
            let (y, cache) = bn.forward(&params, &x);
            let (dx, grads) = bn.backward(&params, &cache, &dy);
            let (want_y, want_dx, want_grads) = batchnorm_by_index_lists(&params, &x, &dy);
            prop_assert_eq!(bits(y.data()), bits(want_y.data()));
            prop_assert_eq!(bits(dx.data()), bits(want_dx.data()));
            prop_assert_eq!(bits(&grads), bits(&want_grads));
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
