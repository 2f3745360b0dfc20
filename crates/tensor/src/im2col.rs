//! `im2col` / `col2im` transforms for convolution layers.
//!
//! The patch matrix is **channel-major**, `(C·k·k, B·out_h·out_w)`: one
//! row per kernel tap, one column per output position. A row is then a
//! shifted copy of input rows — one `copy_from_slice` per tap and plane
//! when stride is 1 and the padding keeps the width, a strided gather
//! per output row otherwise, `fill` for the zero edges — with no
//! per-element index arithmetic or bounds test.
//!
//! Both transforms split into one work item per `(batch, channel)` input
//! plane — `im2col` writes that plane's row segments, `col2im`
//! accumulates into that plane — and run the items on the shared kernel
//! pool above [`PAR_MIN_LEN`] elements. Items touch disjoint output and
//! each keeps a fixed internal order, so the split is independent of
//! thread count and bit-exact.

use std::ops::Range;

use crate::kernels::UnsafeSlice;
use crate::pool;
use crate::tensor::Tensor;

/// Transforms smaller than this many output elements stay serial.
const PAR_MIN_LEN: usize = 1 << 16;

/// Geometry of a 2-D convolution: input/kernel sizes, stride, padding.
///
/// Input layout is `(batch, channels, height, width)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height/width (square kernels).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on all sides.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output height after convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of columns of the im2col matrix per batch element
    /// (`out_h * out_w`).
    pub fn patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Number of rows of the im2col matrix (`in_channels * kernel^2`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Output positions `o` whose input coordinate `o * s + kk - p` falls
/// inside `0..extent`, clamped to `0..out_extent`.
fn valid_outputs(kk: usize, extent: usize, out_extent: usize, s: usize, p: usize) -> Range<usize> {
    let hi = if extent + p > kk { ((extent + p - kk - 1) / s + 1).min(out_extent) } else { 0 };
    p.saturating_sub(kk).div_ceil(s).min(hi)..hi
}

/// One kernel tap `(ky, kx)` and the output rows and columns at which it
/// reads inside the image rather than in the padding.
struct Tap {
    ky: usize,
    kx: usize,
    oy: Range<usize>,
    ox: Range<usize>,
}

impl Conv2dGeometry {
    /// The `k * k` taps in patch-row order (`ky`, then `kx`, ascending).
    fn taps(&self) -> Vec<Tap> {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        (0..k * k)
            .map(|t| Tap {
                ky: t / k,
                kx: t % k,
                oy: valid_outputs(t / k, self.in_h, self.out_h(), s, p),
                ox: valid_outputs(t % k, self.in_w, self.out_w(), s, p),
            })
            .collect()
    }

    /// Offset inside an input plane of what `tap` reads at output `(oy, ox)`.
    fn input_offset(&self, tap: &Tap, oy: usize, ox: usize) -> usize {
        let (s, p) = (self.stride, self.padding);
        (oy * s + tap.ky - p) * self.in_w + ox * s + tap.kx - p
    }

    /// Stride 1 with equal input and output width ("same" padding): a
    /// tap's whole valid region is then one run of the output plane and
    /// the equally long run of the input plane one fixed shift away. Only
    /// where the shift wraps into the neighbouring row — the `kx` columns
    /// that fall in the padding, adjacent across each row boundary — do
    /// the two disagree.
    fn same_pitch(&self) -> bool {
        self.stride == 1 && self.out_w() == self.in_w
    }
}

impl Tap {
    fn only_padding(&self) -> bool {
        self.oy.is_empty() || self.ox.is_empty()
    }

    /// The valid region as one run of an output plane `ow` wide, first
    /// valid element to last: `(start, end)`.
    fn run(&self, ow: usize) -> (usize, usize) {
        (self.oy.start * ow + self.ox.start, (self.oy.end - 1) * ow + self.ox.end)
    }

    /// The stretches of that run that lie in the padding: the end of each
    /// output row but the last together with the start of the next.
    fn wraps(&self, ow: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        (self.oy.start..self.oy.end - 1)
            .map(move |y| y * ow + self.ox.end..(y + 1) * ow + self.ox.start)
    }
}

/// Unfolds an input batch `(B, C, H, W)` into the channel-major patch
/// matrix `(C * k * k, B * out_h * out_w)`: row `(c, ky, kx)` holds, for
/// every output position `(b, oy, ox)`, the input value that kernel tap
/// reads there (zero in the padding). Each row is a shifted copy of input
/// rows, so convolution becomes `K (out_c × C·k·k) · cols` with the
/// output positions — not the handful of output channels — along the
/// GEMM's wide axis.
///
/// Every element of `out` is written; its previous contents do not matter.
///
/// # Panics
///
/// Panics if `input` is not 4-D, its channel/height/width extents do not
/// match `geom`, or `out` has the wrong length.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry, out: &mut [f32]) {
    assert_eq!(input.ndim(), 4, "im2col: input must be (B,C,H,W), got {:?}", input.shape());
    let (b, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    assert_eq!(c, geom.in_channels, "im2col: channel mismatch");
    assert_eq!(h, geom.in_h, "im2col: height mismatch");
    assert_eq!(w, geom.in_w, "im2col: width mismatch");
    let (ow, s) = (geom.out_w(), geom.stride);
    let (plane, total) = (geom.patches(), b * geom.patches());
    assert_eq!(out.len(), geom.patch_len() * total, "im2col: output length mismatch");
    // The unfold moves data and multiplies nothing: it counts as a call
    // with a latency, and as zero flops.
    let timer = crate::telemetry::kernel_timer(crate::telemetry::KernelKind::Im2col, 0);
    let data = input.data();
    let (taps, same_pitch) = (geom.taps(), geom.same_pitch());
    let parallel = b * c >= 2 && out.len() >= PAR_MIN_LEN;
    let slab = UnsafeSlice::new(out);
    // One work item per (batch, channel) input plane: it fills that
    // plane's `k * k` row segments of `plane` elements and nothing else.
    let unfold_plane = |g: usize| {
        let (bi, ci) = (g / c, g % c);
        let src = &data[g * h * w..(g + 1) * h * w];
        for (t, tap) in taps.iter().enumerate() {
            // SAFETY: segment `(row, bi)` belongs to plane `g` alone.
            let dst = unsafe { slab.slice_mut((ci * taps.len() + t) * total + bi * plane, plane) };
            if tap.only_padding() {
                dst.fill(0.0);
                continue;
            }
            let (start, end) = tap.run(ow);
            dst[..start].fill(0.0);
            dst[end..].fill(0.0);
            if same_pitch {
                let from = geom.input_offset(tap, tap.oy.start, tap.ox.start);
                dst[start..end].copy_from_slice(&src[from..from + end - start]);
            } else {
                for oy in tap.oy.clone() {
                    let valid = &mut dst[oy * ow + tap.ox.start..oy * ow + tap.ox.end];
                    let from = &src[geom.input_offset(tap, oy, tap.ox.start)..];
                    for (d, &v) in valid.iter_mut().zip(from.iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
            tap.wraps(ow).for_each(|wrap| dst[wrap].fill(0.0));
        }
    };
    if parallel {
        pool::parallel_for(b * c, unfold_plane);
    } else {
        (0..b * c).for_each(unfold_plane);
    }
    crate::telemetry::kernel_record(timer);
}

/// Folds a channel-major patch-gradient matrix `(C * k * k, B * out_h *
/// out_w)` back into an input-shaped gradient `(B, C, H, W)`, accumulating
/// overlapping contributions. This is the adjoint of [`im2col`].
///
/// Kernel taps are walked `ky`, `kx` **downwards**: an input element
/// `(iy, ix)` is read by tap `(ky, kx)` at output `oy = (iy + p - ky) / s`,
/// so descending taps reach it in ascending `(oy, ox)` order — the order
/// the sums have always been taken in, which keeps `dx` bit-stable.
///
/// `cols` is consumed: the fold clears the entries a tap would have read
/// from the padding, so that a tap's valid region can be added as one run
/// (see [`Conv2dGeometry::same_pitch`]). Adding those zeros changes no
/// bit: a sum that starts at `+0.0` is never `-0.0`, and `x + 0.0 == x`
/// for every other `x`.
///
/// # Panics
///
/// Panics if `cols` does not have the length implied by `geom` and `batch`.
pub fn col2im(cols: &mut [f32], geom: &Conv2dGeometry, batch: usize) -> Tensor {
    let (ow, s) = (geom.out_w(), geom.stride);
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (plane, total) = (geom.patches(), batch * geom.patches());
    assert_eq!(cols.len(), geom.patch_len() * total, "col2im: length mismatch");
    let mut out = Tensor::zeros(&[batch, c, h, w]);
    let (taps, same_pitch) = (geom.taps(), geom.same_pitch());
    let parallel = batch * c >= 2 && cols.len() >= PAR_MIN_LEN;
    let (cols, slab) = (UnsafeSlice::new(cols), UnsafeSlice::new(out.data_mut()));
    // Windows overlap within an input plane and never across planes, so
    // the disjoint split is again one work item per (batch, channel).
    let fold_plane = |g: usize| {
        let (bi, ci) = (g / c, g % c);
        // SAFETY: plane `g` is written by work item `g` alone.
        let dst = unsafe { slab.slice_mut(g * h * w, h * w) };
        for (t, tap) in taps.iter().enumerate().rev() {
            if tap.only_padding() {
                continue;
            }
            // SAFETY: segment `(row, bi)` belongs to plane `g` alone.
            let src = unsafe { cols.slice_mut((ci * taps.len() + t) * total + bi * plane, plane) };
            if same_pitch {
                tap.wraps(ow).for_each(|wrap| src[wrap].fill(0.0));
                let (start, end) = tap.run(ow);
                let into = &mut dst[geom.input_offset(tap, tap.oy.start, tap.ox.start)..];
                for (d, &v) in into.iter_mut().zip(&src[start..end]) {
                    *d += v;
                }
            } else {
                for oy in tap.oy.clone() {
                    let valid = &src[oy * ow + tap.ox.start..oy * ow + tap.ox.end];
                    let into = &mut dst[geom.input_offset(tap, oy, tap.ox.start)..];
                    for (d, &v) in into.iter_mut().step_by(s).zip(valid) {
                        *d += v;
                    }
                }
            }
        }
    };
    if parallel {
        pool::parallel_for(batch * c, fold_plane);
    } else {
        (0..batch * c).for_each(fold_plane);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry { in_channels: c, in_h: h, in_w: w, kernel: k, stride: s, padding: p }
    }

    fn unfold(input: &Tensor, g: &Conv2dGeometry) -> Vec<f32> {
        // Stale contents must not survive: every element is written.
        let mut out = vec![f32::NAN; g.patch_len() * input.shape()[0] * g.patches()];
        im2col(input, g, &mut out);
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Visits every in-bounds `(patch-matrix row, column, input offset)`
    /// triple of the row-major `(B·oh·ow, C·k·k)` unfold in the order the
    /// original loops did: output position outermost, kernel tap inside,
    /// one bounds test per element.
    fn for_each_tap(g: &Conv2dGeometry, batch: usize, mut f: impl FnMut(usize, usize, usize)) {
        let (oh, ow, k, s, p) = (g.out_h(), g.out_w(), g.kernel, g.stride, g.padding);
        let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
        for bi in 0..batch {
            for oy in 0..oh {
                for ox in 0..ow {
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * s + ky) as isize - p as isize;
                            for kx in 0..k {
                                let ix = (ox * s + kx) as isize - p as isize;
                                if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                    f(
                                        (bi * oh + oy) * ow + ox,
                                        (ci * k + ky) * k + kx,
                                        ((bi * c + ci) * h + iy as usize) * w + ix as usize,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The row-major unfold the production transform replaced.
    fn im2col_rows(input: &Tensor, g: &Conv2dGeometry) -> Vec<f32> {
        let batch = input.shape()[0];
        let mut out = vec![0.0f32; batch * g.patches() * g.patch_len()];
        for_each_tap(g, batch, |r, col, i| out[r * g.patch_len() + col] = input.data()[i]);
        out
    }

    /// The row-major fold the production transform replaced.
    fn col2im_rows(cols: &[f32], g: &Conv2dGeometry, batch: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; batch * g.in_channels * g.in_h * g.in_w];
        for_each_tap(g, batch, |r, col, i| out[i] += cols[r * g.patch_len() + col]);
        out
    }

    fn transpose(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        Tensor::from_vec(m.to_vec(), &[rows, cols]).transpose().into_vec()
    }

    #[test]
    fn output_sizes() {
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        let g2 = geom(3, 32, 32, 3, 2, 1);
        assert_eq!(g2.out_h(), 16);
        let g3 = geom(1, 5, 5, 3, 1, 0);
        assert_eq!(g3.out_h(), 3);
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        // A 1x1 kernel with stride 1 and no padding is a pure reshape:
        // row `c` of the patch matrix is channel `c` of the image.
        let g = geom(2, 3, 3, 1, 1, 0);
        let input = Tensor::from_vec((0..18).map(|x| x as f32).collect(), &[1, 2, 3, 3]);
        assert_eq!(unfold(&input, &g), input.data());
    }

    #[test]
    fn im2col_3x3_hand_checked() {
        let g = geom(1, 3, 3, 3, 1, 1);
        let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]);
        let cols = unfold(&input, &g);
        assert_eq!(cols.len(), 9 * 9);
        let patch = |pos: usize| (0..9).map(|tap| cols[tap * 9 + pos]).collect::<Vec<_>>();
        // Center patch (oy=1, ox=1) covers the entire image.
        assert_eq!(patch(4), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        // Corner patch (oy=0, ox=0) has zero padding on top/left.
        assert_eq!(patch(0), [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
    }

    #[test]
    fn kernel_wider_than_the_padded_reach_is_all_padding_at_the_far_taps() {
        // 1×1 image, 5×5 kernel, padding 2: one output position; the
        // outer taps never touch the image.
        let g = geom(1, 1, 1, 5, 1, 2);
        let input = Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]);
        let cols = unfold(&input, &g);
        assert_eq!(bits(&cols), bits(&transpose(&im2col_rows(&input, &g), 1, 25)));
        assert_eq!(col2im(&mut cols.clone(), &g, 1).data(), &[7.0]);
    }

    #[test]
    fn pool_split_is_bit_exact() {
        // Large enough to cross PAR_MIN_LEN, so the 3-thread pool really splits.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let g = geom(5, 17, 15, 3, 2, 1);
        let x = Tensor::randn(&[24, 5, 17, 15], &mut rng);
        let serial = crate::pool::serial_scope(|| unfold(&x, &g));
        assert!(serial.len() >= PAR_MIN_LEN);
        let dy = Tensor::randn(&[serial.len()], &mut rng).into_vec();
        let serial_dx = crate::pool::serial_scope(|| col2im(&mut dy.clone(), &g, 24));
        crate::pool::with_pool(&crate::ThreadPool::new(3), || {
            assert_eq!(bits(&unfold(&x, &g)), bits(&serial));
            assert_eq!(bits(col2im(&mut dy.clone(), &g, 24).data()), bits(serial_dx.data()));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Kernel ∈ {1, 3}, stride ∈ {1, 2}, padding ∈ {0, 1}, odd sizes
        /// and channel counts off every tile multiple: the unfold is the
        /// transpose of the row-major one, the fold equals the row-major
        /// fold of the transposed matrix bit for bit (same summation
        /// order), and the two are adjoint.
        #[test]
        fn channel_major_transforms_match_the_row_major_oracle(
            batch in 1usize..4,
            c in 1usize..6,
            h in 3usize..10,
            w in 3usize..10,
            k in (0usize..2).prop_map(|i| [1, 3][i]),
            s in 1usize..3,
            p in 0usize..2,
            seed in 0u64..1000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = geom(c, h, w, k, s, p);
            let (rows, pl) = (batch * g.patches(), g.patch_len());
            let x = Tensor::randn(&[batch, c, h, w], &mut rng);
            let cols = unfold(&x, &g);
            prop_assert_eq!(bits(&cols), bits(&transpose(&im2col_rows(&x, &g), rows, pl)));

            let dcols = Tensor::randn(&[pl, rows], &mut rng);
            let dx = col2im(&mut dcols.data().to_vec(), &g, batch);
            prop_assert_eq!(dx.shape(), x.shape());
            let want = col2im_rows(&transpose(dcols.data(), pl, rows), &g, batch);
            prop_assert_eq!(bits(dx.data()), bits(&want));

            // <im2col(x), y> == <x, col2im(y)>
            let lhs: f64 = cols.iter().zip(dcols.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
            let rhs: f64 = x.data().iter().zip(dx.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
            prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs()), "adjoint: {lhs} vs {rhs}");
        }
    }
}
