//! What `pipemare_tensor::conv` is held to, bit for bit — a dev-dependency
//! of the crates that test convolution and of nothing else
//! (`tests/architecture.rs`, guard `no_patch_matrix`, fails on any other
//! edge).
//!
//! Two independent references:
//!
//! * [`Case::oracle`] — the patch-matrix convolution, `im2col → GEMM →
//!   col2im`, that every convolution in this workspace ran until the
//!   blocked passes replaced it: the same unfold, the same three products
//!   through the public GEMM entry points, the same fold, the same bias
//!   add and row sums the layer did around them. [`im2col`] writes the
//!   channel-major patch matrix `(C·k·k, B·oh·ow)`, one row per kernel tap
//!   and one column per output position; [`col2im`] walks the taps `ky`,
//!   `kx` **downwards**, so every input-gradient element receives its
//!   terms in ascending `(oy, ox)` order.
//! * [`Case::definition`] — convolution as its definition states it: seven
//!   nested loops, one bounds test per tap, no patch matrix, no GEMM, no
//!   tiling. It is what anchors the first: this crate's own tests hold
//!   [`im2col`] and [`col2im`] to the per-tap loops they were derived
//!   from, and the whole patch-matrix path to the definition.
//!
//! It also holds [`assert_close`], the elementwise tolerance check of the
//! tensor and layer unit tests, so that no library crate exports a
//! test-only function.

use std::ops::Range;

use pipemare_tensor::{kernels, Conv2dGeometry, ConvProblem};
use rand::{Rng, SeedableRng};

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

/// The `k * k` taps in patch-row order (`ky`, then `kx`, ascending).
fn taps(g: &Conv2dGeometry) -> Vec<Tap> {
    let (k, s, p) = (g.kernel, g.stride, g.padding);
    (0..k * k)
        .map(|t| Tap {
            ky: t / k,
            kx: t % k,
            oy: valid_outputs(t / k, g.in_h, g.out_h(), s, p),
            ox: valid_outputs(t % k, g.in_w, g.out_w(), s, p),
        })
        .collect()
}

/// Offset inside an input plane of what `tap` reads at output `(oy, ox)`.
fn input_offset(g: &Conv2dGeometry, tap: &Tap, oy: usize, ox: usize) -> usize {
    (oy * g.stride + tap.ky - g.padding) * g.in_w + ox * g.stride + tap.kx - g.padding
}

/// Stride 1 with equal input and output width ("same" padding): a tap's
/// whole valid region is then one run of the output plane and the equally
/// long run of the input plane one fixed shift away, except where the
/// shift wraps into the neighbouring row.
fn same_pitch(g: &Conv2dGeometry) -> bool {
    g.stride == 1 && g.out_w() == g.in_w
}

impl Tap {
    fn only_padding(&self) -> bool {
        self.oy.is_empty() || self.ox.is_empty()
    }

    /// The valid region as one run of an output plane `ow` wide.
    fn run(&self, ow: usize) -> (usize, usize) {
        (self.oy.start * ow + self.ox.start, (self.oy.end - 1) * ow + self.ox.end)
    }

    /// The stretches of that run that lie in the padding.
    fn wraps(&self, ow: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        (self.oy.start..self.oy.end - 1)
            .map(move |y| y * ow + self.ox.end..(y + 1) * ow + self.ox.start)
    }
}

/// Unfolds `x (B, C, H, W)` into the channel-major patch matrix: row
/// `(c, ky, kx)` holds, for every output position `(b, oy, ox)`, the input
/// value that tap reads there (zero in the padding).
pub fn im2col(x: &[f32], geom: &Conv2dGeometry, batch: usize, out: &mut [f32]) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (ow, s) = (geom.out_w(), geom.stride);
    let (plane, total) = (geom.patches(), batch * geom.patches());
    assert_eq!(x.len(), batch * c * h * w, "im2col: input length mismatch");
    assert_eq!(out.len(), geom.patch_len() * total, "im2col: output length mismatch");
    let taps = taps(geom);
    for g in 0..batch * c {
        let (bi, ci) = (g / c, g % c);
        let src = &x[g * h * w..(g + 1) * h * w];
        for (t, tap) in taps.iter().enumerate() {
            let dst = &mut out[(ci * taps.len() + t) * total + bi * plane..][..plane];
            dst.fill(0.0);
            if tap.only_padding() {
                continue;
            }
            for oy in tap.oy.clone() {
                let valid = &mut dst[oy * ow + tap.ox.start..oy * ow + tap.ox.end];
                let from = &src[input_offset(geom, tap, oy, tap.ox.start)..];
                for (d, &v) in valid.iter_mut().zip(from.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

/// Folds a patch-gradient matrix back into an input-shaped gradient,
/// taps descending. `cols` is consumed: where a tap's valid region is
/// added as one run, the entries in between are cleared first (adding
/// `+0.0` to a sum that started at `+0.0` changes no bit).
pub fn col2im(cols: &mut [f32], geom: &Conv2dGeometry, batch: usize) -> Vec<f32> {
    let (ow, s) = (geom.out_w(), geom.stride);
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (plane, total) = (geom.patches(), batch * geom.patches());
    assert_eq!(cols.len(), geom.patch_len() * total, "col2im: length mismatch");
    let mut out = vec![0.0f32; batch * c * h * w];
    let (taps, same_pitch) = (taps(geom), same_pitch(geom));
    for g in 0..batch * c {
        let (bi, ci) = (g / c, g % c);
        let dst = &mut out[g * h * w..(g + 1) * h * w];
        for (t, tap) in taps.iter().enumerate().rev() {
            if tap.only_padding() {
                continue;
            }
            let src = &mut cols[(ci * taps.len() + t) * total + bi * plane..][..plane];
            if same_pitch {
                tap.wraps(ow).for_each(|wrap| src[wrap].fill(0.0));
                let (start, end) = tap.run(ow);
                let into = &mut dst[input_offset(geom, tap, tap.oy.start, tap.ox.start)..];
                for (d, &v) in into.iter_mut().zip(&src[start..end]) {
                    *d += v;
                }
            } else {
                for oy in tap.oy.clone() {
                    let valid = &src[oy * ow + tap.ox.start..oy * ow + tap.ox.end];
                    let into = &mut dst[input_offset(geom, tap, oy, tap.ox.start)..];
                    for (d, &v) in into.iter_mut().step_by(s).zip(valid) {
                        *d += v;
                    }
                }
            }
        }
    }
    out
}

/// Copies `src` laid out `(a, b, run)` into `dst` laid out `(b, a, run)`.
fn swap_leading_axes(src: &[f32], dst: &mut [f32], a: usize, b: usize, run: usize) {
    for i in 0..a {
        for j in 0..b {
            dst[(j * a + i) * run..][..run].copy_from_slice(&src[(i * b + j) * run..][..run]);
        }
    }
}

/// One convolution with its operands.
pub struct Case {
    pub problem: ConvProblem,
    pub kernel: Vec<f32>,
    pub bias: Option<Vec<f32>>,
    pub x: Vec<f32>,
    pub dy: Vec<f32>,
}

/// What a forward and a backward pass produce.
pub struct Outputs {
    pub y: Vec<f32>,
    pub dx: Vec<f32>,
    pub dw: Vec<f32>,
    pub db: Vec<f32>,
}

impl Case {
    /// Operands drawn uniformly from `[-scale, scale)`.
    pub fn random(problem: ConvProblem, bias: bool, scale: f32, seed: u64) -> Case {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len).map(|_| scale * rng.gen_range(-1.0f32..1.0)).collect()
        };
        Case {
            problem,
            kernel: draw(problem.kernel_len()),
            bias: bias.then(|| draw(problem.out_channels)),
            x: draw(problem.input_len()),
            dy: draw(problem.output_len()),
        }
    }

    /// The patch-matrix path: `y = swap(K · cols + bias)`, `dW = dyᵀ ·
    /// colsᵀ`, `db` = sequential row sums, `dx = col2im(Kᵀ · dyᵀ)`.
    pub fn oracle(&self) -> Outputs {
        let ConvProblem { geom, out_channels: oc, batch } = self.problem;
        let (pl, plane) = (geom.patch_len(), geom.patches());
        let rows = batch * plane;
        let mut cols = vec![0.0f32; pl * rows];
        im2col(&self.x, &geom, batch, &mut cols);

        let mut yt = vec![0.0f32; oc * rows];
        kernels::gemm(&self.kernel, &cols, &mut yt, oc, pl, rows);
        if let Some(bias) = &self.bias {
            for (o, &b) in bias.iter().enumerate() {
                yt[o * rows..(o + 1) * rows].iter_mut().for_each(|v| *v += b);
            }
        }
        let mut y = vec![0.0f32; oc * rows];
        swap_leading_axes(&yt, &mut y, oc, batch, plane);

        let mut dyt = vec![0.0f32; oc * rows];
        swap_leading_axes(&self.dy, &mut dyt, batch, oc, plane);
        let mut dw = vec![0.0f32; oc * pl];
        kernels::gemm_nt(&dyt, &cols, &mut dw, oc, rows, pl);
        let db = match &self.bias {
            Some(_) => (0..oc)
                .map(|o| dyt[o * rows..(o + 1) * rows].iter().fold(0.0, |acc, &v| acc + v))
                .collect(),
            None => Vec::new(),
        };
        cols.fill(0.0);
        kernels::gemm_tn(&self.kernel, &dyt, &mut cols, pl, oc, rows);
        let dx = col2im(&mut cols, &geom, batch);
        Outputs { y, dx, dw, db }
    }

    /// Convolution by its definition, with the summation orders the
    /// module docs of `pipemare_tensor::conv` promise: every `y` and `dW`
    /// element one `f32::mul_add` chain from `+0.0` (taps `(c, ky, kx)`
    /// ascending, padding taps multiplying real zeros; positions `(b, oy,
    /// ox)` ascending), stored as `0.0 + chain`; every `dx` element the
    /// sum, taps **descending**, of the terms `0.0 + Σ_o K[o, tap] ·
    /// dy[b, o, oy, ox]` of the taps that read it inside the image.
    pub fn definition(&self) -> Outputs {
        let ConvProblem { geom: g, out_channels: oc, batch } = self.problem;
        let (c, h, w, k, s, pad) = (g.in_channels, g.in_h, g.in_w, g.kernel, g.stride, g.padding);
        let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
        // Where tap `kk` at output coordinate `o` reads, if inside `0..extent`.
        let reads = |o: usize, kk: usize, extent: usize| {
            (o * s + kk).checked_sub(pad).filter(|&i| i < extent)
        };
        // The input under tap `p = (ci, ky, kx)` at output `(b, oy, ox)`.
        let patch = |b: usize, oy: usize, ox: usize, p: usize| {
            let (ci, ky, kx) = (p / (k * k), p / k % k, p % k);
            match (reads(oy, ky, h), reads(ox, kx, w)) {
                (Some(iy), Some(ix)) => self.x[((b * c + ci) * h + iy) * w + ix],
                _ => 0.0,
            }
        };
        let dy =
            |b: usize, o: usize, oy: usize, ox: usize| self.dy[((b * oc + o) * oh + oy) * ow + ox];

        let mut y = vec![0.0f32; self.problem.output_len()];
        for (i, y) in y.iter_mut().enumerate() {
            let (b, o, oy, ox) = (i / (oc * oh * ow), i / (oh * ow) % oc, i / ow % oh, i % ow);
            let chain = (0..pl)
                .fold(0.0f32, |acc, p| self.kernel[o * pl + p].mul_add(patch(b, oy, ox, p), acc));
            *y = self.bias.as_ref().map_or(0.0 + chain, |bias| (0.0 + chain) + bias[o]);
        }

        let mut dw = vec![0.0f32; self.problem.kernel_len()];
        for (i, dw) in dw.iter_mut().enumerate() {
            let (o, p) = (i / pl, i % pl);
            let mut chain = 0.0f32;
            for b in 0..batch {
                for oy in 0..oh {
                    for ox in 0..ow {
                        chain = dy(b, o, oy, ox).mul_add(patch(b, oy, ox, p), chain);
                    }
                }
            }
            *dw = 0.0 + chain;
        }

        let db = match &self.bias {
            Some(_) => (0..oc)
                .map(|o| {
                    let at = |b: usize| &self.dy[(b * oc + o) * oh * ow..][..oh * ow];
                    (0..batch).flat_map(at).fold(0.0f32, |acc, &v| acc + v)
                })
                .collect(),
            None => Vec::new(),
        };

        // Tap `kk` reads input coordinate `i` from output `(i + pad − kk) / s`.
        let read_from = |i: usize, kk: usize, out_extent: usize| {
            (i + pad)
                .checked_sub(kk)
                .filter(|d| d % s == 0)
                .map(|d| d / s)
                .filter(|&o| o < out_extent)
        };
        let mut dx = vec![0.0f32; self.problem.input_len()];
        for (i, dx) in dx.iter_mut().enumerate() {
            let (b, ci, iy, ix) = (i / (c * h * w), i / (h * w) % c, i / w % h, i % w);
            for tap in (0..k * k).rev() {
                if let (Some(oy), Some(ox)) =
                    (read_from(iy, tap / k, oh), read_from(ix, tap % k, ow))
                {
                    let p = ci * k * k + tap;
                    let chain = (0..oc).fold(0.0f32, |acc, o| {
                        self.kernel[o * pl + p].mul_add(dy(b, o, oy, ox), acc)
                    });
                    *dx += 0.0 + chain;
                }
            }
        }
        Outputs { y, dx, dw, db }
    }
}

/// Bit patterns, every NaN mapped to one pattern: which NaN an operation
/// hands on when two meet depends on the instruction form the compiler
/// picked, where a NaN sits does not.
pub fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

/// Asserts that two slices are elementwise close: `|a - b| <= atol + rtol *
/// |b|`. The tolerance check of the tensor and layer unit tests that are
/// not held to bits.
///
/// # Panics
///
/// Panics if lengths differ or any element pair is not close.
pub fn assert_close(a: &[f32], b: &[f32], atol: f32, rtol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let tol = atol + rtol * y.abs();
        assert!((x - y).abs() <= tol, "element {i} differs: {x} vs {y} (tol {tol})");
    }
}

fn problem(
    c: usize,
    hw: (usize, usize),
    k: usize,
    s: usize,
    p: usize,
    oc: usize,
    batch: usize,
) -> ConvProblem {
    let geom =
        Conv2dGeometry { in_channels: c, in_h: hw.0, in_w: hw.1, kernel: k, stride: s, padding: p };
    ConvProblem { geom, out_channels: oc, batch }
}

/// Hand-picked cases the random ones are unlikely to hit.
pub fn special_cases() -> Vec<(&'static str, Case)> {
    // ±∞ and NaN in the corner and centre taps and in the operands: the
    // padding taps of the forward product multiply real zeros (`∞ · 0` is
    // a NaN there and must stay one), while the input gradient must not
    // see a single `∞ · 0` the fold never added.
    let mut non_finite = Case::random(problem(3, (6, 5), 3, 1, 1, 5, 2), true, 1.0, 5);
    non_finite.kernel[0] = f32::INFINITY;
    non_finite.kernel[3 * 9 + 8] = f32::NEG_INFINITY;
    non_finite.kernel[2 * 27 + 13] = f32::NAN;
    non_finite.x[7] = f32::INFINITY;
    non_finite.x[3 * 30 + 11] = f32::NAN;
    non_finite.dy[4] = f32::NEG_INFINITY;
    let mut strided = Case::random(problem(2, (7, 7), 3, 2, 1, 3, 2), false, 1.0, 6);
    strided.kernel[0] = f32::INFINITY;
    strided.kernel[17] = f32::NEG_INFINITY;
    // Every product underflows, so many chains end at −0.0: storing a tile
    // and adding it to a cleared output then differ in the sign bit.
    let tiny = Case::random(problem(4, (5, 6), 3, 1, 1, 9, 3), true, 1e-30, 7);
    let mut tiny_no_bias = Case::random(problem(4, (5, 6), 3, 2, 0, 9, 3), false, 1e-30, 8);
    tiny_no_bias.x.iter_mut().step_by(3).for_each(|v| *v = -v.abs());
    vec![
        ("non-finite operands, same padding", non_finite),
        ("infinite corner taps, stride 2", strided),
        ("operands near 1e-30 with bias", tiny),
        ("operands near 1e-30, stride 2, no bias", tiny_no_bias),
        // Panels that cross rows and images, ragged against every tile.
        ("5x7 outputs", Case::random(problem(5, (5, 7), 3, 1, 1, 13, 3), true, 1.0, 9)),
        (
            "4x4 outputs over 4 images",
            Case::random(problem(7, (4, 4), 3, 1, 1, 9, 4), false, 1.0, 10),
        ),
        ("1x1 outputs", Case::random(problem(3, (1, 1), 5, 1, 2, 4, 4), true, 1.0, 11)),
        (
            "1x1 kernel, stride 2",
            Case::random(problem(12, (16, 16), 1, 2, 0, 24, 2), false, 1.0, 12),
        ),
        ("5x5 kernel, stride 3", Case::random(problem(2, (11, 9), 5, 3, 2, 7, 2), true, 1.0, 13)),
        // Large enough for the pool to split the batch into chunks.
        ("pool-sized", Case::random(problem(12, (16, 16), 3, 1, 1, 12, 20), false, 1.0, 14)),
        ("empty batch", Case::random(problem(2, (4, 4), 3, 1, 1, 3, 0), true, 1.0, 15)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry { in_channels: c, in_h: h, in_w: w, kernel: k, stride: s, padding: p }
    }

    fn unfold(x: &[f32], g: &Conv2dGeometry, batch: usize) -> Vec<f32> {
        // Stale contents must not survive: every element is written.
        let mut out = vec![f32::NAN; g.patch_len() * batch * g.patches()];
        im2col(x, g, batch, &mut out);
        out
    }

    /// Visits every in-bounds `(output position, tap, input offset)`
    /// triple in the order the definition's loops do: output position
    /// outermost, kernel tap inside, one bounds test per element.
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

    /// The unfold by its definition, channel-major like [`im2col`]'s.
    fn im2col_by_taps(x: &[f32], g: &Conv2dGeometry, batch: usize) -> Vec<f32> {
        let rows = batch * g.patches();
        let mut out = vec![0.0f32; g.patch_len() * rows];
        for_each_tap(g, batch, |r, tap, i| out[tap * rows + r] = x[i]);
        out
    }

    /// The fold by its definition: positions ascending, which for one
    /// input element is taps descending — [`col2im`]'s order.
    fn col2im_by_taps(cols: &[f32], g: &Conv2dGeometry, batch: usize) -> Vec<f32> {
        let rows = batch * g.patches();
        let mut out = vec![0.0f32; batch * g.in_channels * g.in_h * g.in_w];
        for_each_tap(g, batch, |r, tap, i| out[i] += cols[tap * rows + r]);
        out
    }

    fn assert_same_bits(name: &str, got: &Outputs, want: &Outputs) {
        assert_eq!(bits(&got.y), bits(&want.y), "{name}: y");
        assert_eq!(bits(&got.dx), bits(&want.dx), "{name}: dx");
        assert_eq!(bits(&got.dw), bits(&want.dw), "{name}: dW");
        assert_eq!(bits(&got.db), bits(&want.db), "{name}: db");
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        // A 1x1 kernel with stride 1 and no padding is a pure reshape:
        // row `c` of the patch matrix is channel `c` of the image.
        let g = geom(2, 3, 3, 1, 1, 0);
        let x: Vec<f32> = (0..18).map(|v| v as f32).collect();
        assert_eq!(unfold(&x, &g, 1), x);
    }

    #[test]
    fn im2col_3x3_hand_checked() {
        let g = geom(1, 3, 3, 3, 1, 1);
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let cols = unfold(&x, &g, 1);
        assert_eq!(cols.len(), 9 * 9);
        let patch = |pos: usize| (0..9).map(|tap| cols[tap * 9 + pos]).collect::<Vec<_>>();
        // Center patch (oy=1, ox=1) covers the entire image.
        assert_eq!(patch(4), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        // Corner patch (oy=0, ox=0) has zero padding on top/left.
        assert_eq!(patch(0), [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
    }

    #[test]
    fn conv_3x3_hand_checked() {
        // One channel, 3x3 image 1..=9, kernel 1..=9, padding 1, dy = 1 at
        // the centre output and 2 at the top-left one, by hand.
        let problem = problem(1, (3, 3), 3, 1, 1, 1, 1);
        let count = |n: usize| (1..=n).map(|v| v as f32).collect::<Vec<f32>>();
        let mut dy = vec![0.0; 9];
        (dy[4], dy[0]) = (1.0, 2.0);
        let case = Case { problem, kernel: count(9), bias: Some(vec![0.5]), x: count(9), dy };
        let got = case.definition();
        // Centre: Σ i² = 285. Top-left: taps 5, 6, 8, 9 over pixels 1, 2, 4, 5.
        assert_eq!(got.y[4], 285.5);
        assert_eq!(got.y[0], 5.0 + 12.0 + 32.0 + 45.0 + 0.5);
        // dW[tap] = 1 · (pixel under the tap at the centre) + 2 · (at the top-left).
        assert_eq!(got.dw, [1.0, 2.0, 3.0, 4.0, 5.0 + 2.0, 6.0 + 4.0, 7.0, 8.0 + 8.0, 9.0 + 10.0]);
        assert_eq!(got.db, [3.0]);
        // dx[pixel] = 1 · K[tap reading it from the centre] + 2 · K[… from the top-left].
        assert_eq!(
            got.dx,
            [1.0 + 10.0, 2.0 + 12.0, 3.0, 4.0 + 16.0, 5.0 + 18.0, 6.0, 7.0, 8.0, 9.0]
        );
        assert_same_bits("hand-checked 3x3", &case.oracle(), &got);
    }

    #[test]
    fn kernel_wider_than_the_padded_reach_is_all_padding_at_the_far_taps() {
        // 1×1 image, 5×5 kernel, padding 2: one output position; the
        // outer taps never touch the image.
        let g = geom(1, 1, 1, 5, 1, 2);
        let cols = unfold(&[7.0], &g, 1);
        assert_eq!(bits(&cols), bits(&im2col_by_taps(&[7.0], &g, 1)));
        assert_eq!(cols.iter().filter(|&&v| v != 0.0).count(), 1);
        assert_eq!(col2im(&mut cols.clone(), &g, 1), [7.0]);
    }

    #[test]
    fn the_patch_matrix_path_is_the_definition_on_the_special_cases() {
        for (name, case) in special_cases() {
            assert_same_bits(name, &case.oracle(), &case.definition());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Kernel ∈ {1, 3, 5}, stride 1–3, padding 0–2, odd sizes: the
        /// unfold and the fold are the per-tap loops bit for bit (same
        /// summation order), and the two are adjoint.
        #[test]
        fn unfold_and_fold_are_the_per_tap_loops_and_adjoint(
            batch in 1usize..4,
            c in 1usize..6,
            h in 1usize..10,
            w in 1usize..10,
            k in (0usize..3).prop_map(|i| [1usize, 3, 5][i]),
            s in 1usize..4,
            p in 0usize..3,
            seed in 0u64..1000,
        ) {
            let fit = |extent: usize| extent.max(k.saturating_sub(2 * p));
            let g = geom(c, fit(h), fit(w), k, s, p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut draw = |len: usize| -> Vec<f32> {
                (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
            };
            let x = draw(batch * c * g.in_h * g.in_w);
            let cols = unfold(&x, &g, batch);
            prop_assert_eq!(bits(&cols), bits(&im2col_by_taps(&x, &g, batch)));

            let dcols = draw(cols.len());
            let dx = col2im(&mut dcols.clone(), &g, batch);
            prop_assert_eq!(bits(&dx), bits(&col2im_by_taps(&dcols, &g, batch)));

            // <im2col(x), y> == <x, col2im(y)>
            let dot = |a: &[f32], b: &[f32]| -> f64 {
                a.iter().zip(b).map(|(&a, &b)| a as f64 * b as f64).sum()
            };
            let (lhs, rhs) = (dot(&cols, &dcols), dot(&x, &dx));
            prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs()), "adjoint: {lhs} vs {rhs}");
        }

        /// The whole patch-matrix path — `y`, `dx`, `dW`, `db` — against
        /// the seven loops, over the strategy the blocked passes are held
        /// to the oracle with.
        #[test]
        fn the_patch_matrix_path_is_the_definition(
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
            let problem = problem(in_c, (fit(h), fit(w)), k, stride, padding, out_c, batch);
            let case = Case::random(problem, bias, 1.0, seed);
            assert_same_bits("random", &case.oracle(), &case.definition());
        }
    }
}
