//! 2-D convolution on the blocked passes of [`pipemare_tensor::conv`].

use rand::rngs::StdRng;

use pipemare_tensor::{conv, kernels, Conv2dGeometry, ConvProblem, Tensor};

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

/// A 2-D convolution over `(B, C, H, W)` inputs with square kernels.
///
/// The three products of a convolution — `y = K · patches`, `dW = dy ·
/// patchesᵀ`, `dx = fold(Kᵀ · dy)` — run as tiled passes that read their
/// panels straight from NCHW `x` and `dy` and write NCHW `y` and `dx`
/// (see [`pipemare_tensor::conv`]); no patch matrix is ever built. The
/// forward pass caches the input and nothing else; the cache-free pass
/// does not copy it.
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

    /// The geometry over an `h × w` input, checked once here: a kernel
    /// larger than the padded input is refused by name instead of
    /// wrapping around in `out_h()`.
    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        let geom = Conv2dGeometry {
            in_channels: self.in_channels,
            in_h: h,
            in_w: w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        geom.validate();
        geom
    }

    fn problem(&self, x: &Tensor) -> ConvProblem {
        assert_eq!(x.ndim(), 4, "Conv2d input must be (B,C,H,W), got {:?}", x.shape());
        assert_eq!(x.shape()[1], self.in_channels, "Conv2d: channel mismatch");
        ConvProblem {
            geom: self.geometry(x.shape()[2], x.shape()[3]),
            out_channels: self.out_channels,
            batch: x.shape()[0],
        }
    }

    /// [`Layer::backward_into`] with the forward pass's input `x` handed
    /// in by a composite that keeps it elsewhere (another layer's cache,
    /// or rebuilt from one) instead of in this layer's cache.
    pub(crate) fn backward_with_input(
        &self,
        params: &[f32],
        x: &Tensor,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        self.param_grads_with_input(x, dy, grads);
        // dx uses the backward-pass weights.
        let mut dx = Tensor::zeros(x.shape());
        let (level, problem) = (kernels::simd_level(), self.problem(x));
        conv::backward_input(
            level,
            &problem,
            &params[..self.weight_len()],
            dy.data(),
            dx.data_mut(),
        );
        dx
    }

    fn param_grads_with_input(&self, x: &Tensor, dy: &Tensor, grads: &mut [f32]) {
        let problem = self.problem(x);
        let (level, plane) = (kernels::simd_level(), problem.geom.patches());
        let (dw, db) = grads.split_at_mut(self.weight_len());
        // dW uses the forward activations.
        conv::backward_weights(level, &problem, x.data(), dy.data(), dw);
        for (o, g) in db.iter_mut().enumerate() {
            // One sequential sum per channel, images then positions.
            *g = dy
                .data()
                .chunks_exact(plane)
                .skip(o)
                .step_by(self.out_channels)
                .fold(0.0, |acc, image| image.iter().fold(acc, |acc, &v| acc + v));
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
        (self.forward_no_cache(params, x), Cache::with_tensors(vec![x.clone()]))
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        let problem = self.problem(x);
        let geom = problem.geom;
        let (kernel, bias) = params.split_at(self.weight_len());
        let mut y = Tensor::zeros(&[problem.batch, self.out_channels, geom.out_h(), geom.out_w()]);
        conv::forward(
            kernels::simd_level(),
            &problem,
            kernel,
            self.bias.then_some(bias),
            x.data(),
            y.data_mut(),
        );
        y
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
    use pipemare_conv_oracle::assert_close;
    use proptest::prelude::*;

    use pipemare_conv_oracle::{self as conv_oracle, bits, Case};

    /// Runs `case` through the layer and compares `y`, `dx`, `dW` and `db`
    /// with the oracle bit for bit.
    fn assert_layer_matches_oracle(name: &str, case: &Case) {
        let (problem, geom) = (case.problem, case.problem.geom);
        let conv = Conv2d {
            bias: case.bias.is_some(),
            ..Conv2d::new(
                geom.in_channels,
                problem.out_channels,
                geom.kernel,
                geom.stride,
                geom.padding,
            )
        };
        let mut params = case.kernel.clone();
        params.extend(case.bias.iter().flatten());
        let x_shape = [problem.batch, geom.in_channels, geom.in_h, geom.in_w];
        let x = Tensor::from_vec(case.x.clone(), &x_shape);
        let (y, cache) = conv.forward(&params, &x);
        let dy = Tensor::from_vec(case.dy.clone(), y.shape());
        let (dx, grads) = conv.backward(&params, &cache, &dy);
        let want = case.oracle();
        assert_eq!(y.shape(), conv.output_shape(&x_shape).as_slice(), "{name}");
        assert_eq!(bits(y.data()), bits(&want.y), "{name}: y");
        assert_eq!(dx.shape(), x.shape(), "{name}");
        assert_eq!(bits(dx.data()), bits(&want.dx), "{name}: dx");
        let (dw, db) = grads.split_at(case.kernel.len());
        assert_eq!(bits(dw), bits(&want.dw), "{name}: dW");
        assert_eq!(bits(db), bits(&want.db), "{name}: db");
        // The layer keeps its input, not the k²-times larger patches.
        assert_eq!(cache.activation_bytes(), x.len() * 4, "{name}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Channel counts off every `mr`, planes off every `nr`, panels
        /// that cross rows and images, at whatever tier and pool width
        /// this process runs with (`tests/simd_parity.rs` in the tensor
        /// crate forces each).
        #[test]
        fn forward_dx_and_gradients_keep_the_patch_matrix_bits(
            batch in 1usize..5,
            in_c in 1usize..9,
            out_c in 1usize..15,
            h in 1usize..11,
            w in 1usize..11,
            k in (0usize..3).prop_map(|i| [1usize, 3, 5][i]),
            stride in 1usize..4,
            padding in 0usize..3,
            bias in (0usize..2).prop_map(|i| i == 1),
            seed in 0u64..1000,
        ) {
            let fit = |extent: usize| extent.max(k.saturating_sub(2 * padding));
            let geom = Conv2d::new(in_c, out_c, k, stride, padding).geometry(fit(h), fit(w));
            let problem = ConvProblem { geom, out_channels: out_c, batch };
            assert_layer_matches_oracle("random", &Case::random(problem, bias, 1.0, seed));
        }
    }

    #[test]
    fn special_cases_keep_the_patch_matrix_bits() {
        for (name, case) in conv_oracle::special_cases() {
            assert_layer_matches_oracle(name, &case);
        }
    }

    #[test]
    #[should_panic(expected = "the kernel is larger than the padded input")]
    fn a_kernel_larger_than_the_padded_input_is_refused() {
        // 5×5 kernel over a 2×2 image with padding 1: 2 + 2 < 5. This used
        // to overflow `in + 2·padding − kernel` in `usize`.
        let conv = Conv2d::new_no_bias(1, 1, 5, 1, 1);
        conv.forward(&[0.0; 25], &Tensor::zeros(&[1, 1, 2, 2]));
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
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
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
