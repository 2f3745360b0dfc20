//! 2-D convolution via im2col.

use rand::rngs::StdRng;

use pipemare_tensor::{col2im, im2col, kernels, pool, Conv2dGeometry, Tensor};

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

/// Copies `src` laid out `(a, b, run)` into `dst` laid out `(b, a, run)`:
/// `a·b` block copies of `run` contiguous floats. This is the whole cost
/// of going between NCHW `(B, out_c, oh·ow)` and the channel-major GEMM
/// side `(out_c, B·oh·ow)`.
fn swap_leading_axes(src: &[f32], dst: &mut [f32], a: usize, b: usize, run: usize) {
    for i in 0..a {
        for j in 0..b {
            dst[(j * a + i) * run..][..run].copy_from_slice(&src[(i * b + j) * run..][..run]);
        }
    }
}

/// A 2-D convolution over `(B, C, H, W)` inputs with square kernels.
///
/// Implemented as a channel-major `im2col` followed by one GEMM against
/// the kernel in its stored `(out_c, C·k·k)` layout, so the output
/// positions lie along the GEMM's wide axis and the result lands in
/// channel-major order, one block copy away from NCHW. The forward pass
/// caches the input, not the `k²`-times larger patch matrix; `backward`
/// unfolds it again into the same per-thread scratch.
#[derive(Clone, Copy, Debug)]
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel size (square).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Whether a per-channel bias is added.
    pub bias: bool,
}

impl Conv2d {
    /// Creates a convolution with bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d { in_channels, out_channels, kernel, stride, padding, bias: true }
    }

    /// Creates a convolution without bias (the usual choice before a
    /// batch-norm layer).
    pub fn new_no_bias(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d { bias: false, ..Conv2d::new(in_channels, out_channels, kernel, stride, padding) }
    }

    fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels,
            in_h: h,
            in_w: w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }
}

impl Layer for Conv2d {
    fn param_len(&self) -> usize {
        self.weight_len() + if self.bias { self.out_channels } else { 0 }
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let fan_in = self.patch_len();
        let w = Tensor::kaiming(&[self.weight_len()], fan_in, rng);
        out[..self.weight_len()].copy_from_slice(w.data());
        if self.bias {
            out[self.weight_len()..].fill(0.0);
        }
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        assert_eq!(x.ndim(), 4, "Conv2d input must be (B,C,H,W), got {:?}", x.shape());
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.in_channels, "Conv2d: channel mismatch");
        let geom = self.geometry(h, w);
        let (oc, pl, plane) = (self.out_channels, self.patch_len(), geom.patches());
        let rows = b * plane;
        let mut y = Tensor::zeros(&[b, oc, geom.out_h(), geom.out_w()]);
        pool::with_conv_scratch(pl * rows, oc * rows, |cols, yt| {
            im2col(x, &geom, cols); // (patch_len, B*oh*ow)
            yt.fill(0.0);
            // y^T = K · cols with K in its stored (out_c, patch_len) layout.
            kernels::gemm(&params[..self.weight_len()], cols, yt, oc, pl, rows);
            if self.bias {
                for (row, &bias) in yt.chunks_exact_mut(rows).zip(&params[self.weight_len()..]) {
                    row.iter_mut().for_each(|v| *v += bias);
                }
            }
            // (out_c, B, oh*ow) -> (B, out_c, oh*ow)
            swap_leading_axes(yt, y.data_mut(), oc, b, plane);
        });
        (y, Cache::with_tensors(vec![x.clone()]))
    }

    fn backward(&self, params: &[f32], cache: &Cache, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let x = cache.tensor(0);
        let (b, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = self.geometry(h, w);
        let (oc, pl, plane) = (self.out_channels, self.patch_len(), geom.patches());
        let rows = b * plane;
        let mut grads = vec![0.0f32; self.param_len()];
        let (dw, db) = grads.split_at_mut(self.weight_len());
        let dx = pool::with_conv_scratch(pl * rows, oc * rows, |cols, dyt| {
            // dy: (B, out_c, oh*ow) -> (out_c, B*oh*ow)
            swap_leading_axes(dy.data(), dyt, b, oc, plane);
            im2col(x, &geom, cols);
            // dW = dy^T · cols^T — forward activations — written directly
            // into the gradient buffer in its stored (out_c, patch_len)
            // layout.
            kernels::gemm_nt(dyt, cols, dw, oc, rows, pl);
            for (g, row) in db.iter_mut().zip(dyt.chunks_exact(rows)) {
                *g = row.iter().fold(0.0, |acc, &v| acc + v);
            }
            // dcols = K^T · dy^T with K read in its stored layout — uses
            // the backward-pass weights — over the patches it replaces.
            cols.fill(0.0);
            kernels::gemm_tn(&params[..self.weight_len()], dyt, cols, pl, oc, rows);
            col2im(cols, &geom, b)
        });
        (dx, grads)
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        vec![WeightUnit { name: "conv".into(), offset: 0, len: self.param_len() }]
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[2], input[3]);
        vec![input[0], self.out_channels, geom.out_h(), geom.out_w()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use pipemare_tensor::assert_close;
    use proptest::prelude::*;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// The data path `Conv2d` had before it went channel-major, kept as
    /// the oracle: row-major patches `(B·oh·ow, C·k·k)`, `y = cols · Kᵀ`,
    /// a broadcast bias add and an NHWC → NCHW `permute`; backward
    /// permutes `dy` back, takes `dW = dyᵀ · cols` and `dcols = dy · K`.
    /// The row-major patch matrix is the transpose of the channel-major
    /// one and the fold is the same fold (both pinned by the tensor
    /// crate's own oracle test), so what this checks is that re-orienting
    /// the three products moved no bit of `y`, `dx`, `dW` or `db`.
    fn row_major_oracle(
        conv: &Conv2d,
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let (b, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = conv.geometry(h, w);
        let (oh, ow, oc, pl) = (geom.out_h(), geom.out_w(), conv.out_channels, conv.patch_len());
        let rows = b * oh * ow;
        let kernel = &params[..conv.weight_len()];
        let mut cols_t = Tensor::zeros(&[pl, rows]);
        im2col(x, &geom, cols_t.data_mut());
        let cols = cols_t.transpose();

        let mut y = Tensor::zeros(&[rows, oc]);
        kernels::gemm_nt(cols.data(), kernel, y.data_mut(), rows, pl, oc);
        if conv.bias {
            y = y.add(&Tensor::from_vec(params[conv.weight_len()..].to_vec(), &[oc]));
        }
        let y = y.reshaped(&[b, oh, ow, oc]).permute(&[0, 3, 1, 2]);

        let dy2 = dy.permute(&[0, 2, 3, 1]).reshaped(&[rows, oc]);
        let mut grads = vec![0.0f32; conv.param_len()];
        kernels::gemm_tn(dy2.data(), cols.data(), &mut grads[..conv.weight_len()], oc, rows, pl);
        if conv.bias {
            grads[conv.weight_len()..].copy_from_slice(dy2.sum_axis(0).data());
        }
        let mut dcols = Tensor::zeros(&[rows, pl]);
        kernels::gemm(dy2.data(), kernel, dcols.data_mut(), rows, oc, pl);
        let dx = col2im(dcols.transpose().data_mut(), &geom, b);
        (y, dx, grads)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sizes straddle the scalar/blocked GEMM dispatch threshold and
        /// sit off every register-tile multiple.
        #[test]
        fn forward_dx_and_gradients_keep_the_row_major_bits(
            batch in 1usize..5,
            in_c in 1usize..8,
            out_c in 1usize..14,
            h in 3usize..12,
            w in 3usize..12,
            k in (0usize..2).prop_map(|i| [1, 3][i]),
            stride in 1usize..3,
            padding in 0usize..2,
            bias in (0usize..2).prop_map(|i| i == 1),
            seed in 0u64..1000,
        ) {
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            let conv = Conv2d { bias, ..Conv2d::new(in_c, out_c, k, stride, padding) };
            let params = Tensor::randn(&[conv.param_len()], &mut rng).into_vec();
            let x = Tensor::randn(&[batch, in_c, h, w], &mut rng);
            let (y, cache) = conv.forward(&params, &x);
            let dy = Tensor::randn(y.shape(), &mut rng);
            let (dx, grads) = conv.backward(&params, &cache, &dy);
            let (want_y, want_dx, want_grads) = row_major_oracle(&conv, &params, &x, &dy);
            prop_assert_eq!(y.shape(), want_y.shape());
            prop_assert_eq!(bits(y.data()), bits(want_y.data()));
            prop_assert_eq!(dx.shape(), x.shape());
            prop_assert_eq!(bits(dx.data()), bits(want_dx.data()));
            prop_assert_eq!(bits(&grads), bits(&want_grads));
            // The layer keeps its input, not the k²-times larger patches.
            prop_assert_eq!(cache.activation_bytes(), x.len() * 4);
        }
    }

    #[test]
    fn identity_1x1_conv() {
        // A 1x1 conv with identity kernel maps each channel to itself.
        let conv = Conv2d::new_no_bias(2, 2, 1, 1, 0);
        let params = vec![1.0, 0.0, 0.0, 1.0]; // (out_c=2, patch=2) identity
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let (y, _) = conv.forward(&params, &x);
        assert_eq!(y, x);
    }

    #[test]
    fn conv_3x3_sum_kernel() {
        // All-ones 3x3 kernel with padding 1 computes local sums.
        let conv = Conv2d::new_no_bias(1, 1, 3, 1, 1);
        let params = vec![1.0f32; 9];
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let (y, _) = conv.forward(&params, &x);
        // Center sees 9 ones; corners see 4; edges see 6.
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn output_shape_matches_forward() {
        let conv = Conv2d::new(3, 8, 3, 2, 1);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut p = vec![0.0; conv.param_len()];
        conv.init_params(&mut p, &mut rng);
        let (y, _) = conv.forward(&p, &x);
        assert_eq!(y.shape(), conv.output_shape(x.shape()).as_slice());
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
    }

    #[test]
    fn gradcheck_with_bias() {
        let conv = Conv2d::new(2, 3, 3, 1, 1);
        check_layer_gradients(&conv, &[2, 2, 4, 4], 21, 5e-2);
    }

    #[test]
    fn gradcheck_strided_no_bias() {
        let conv = Conv2d::new_no_bias(2, 2, 3, 2, 1);
        check_layer_gradients(&conv, &[1, 2, 5, 5], 22, 5e-2);
    }

    #[test]
    fn stride_equivalent_to_downsampled_dense_positions() {
        // Strided conv output equals dense conv output sampled at stride
        // positions.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dense = Conv2d::new_no_bias(1, 1, 3, 1, 1);
        let strided = Conv2d::new_no_bias(1, 1, 3, 2, 1);
        let mut p = vec![0.0; dense.param_len()];
        dense.init_params(&mut p, &mut rng);
        let x = Tensor::randn(&[1, 1, 6, 6], &mut rng);
        let (yd, _) = dense.forward(&p, &x);
        let (ys, _) = strided.forward(&p, &x);
        for oy in 0..3 {
            for ox in 0..3 {
                assert_close(
                    &[ys.at(&[0, 0, oy, ox])],
                    &[yd.at(&[0, 0, 2 * oy, 2 * ox])],
                    1e-6,
                    1e-5,
                );
            }
        }
    }
}
