//! The patch-matrix convolution — `im2col → GEMM → col2im` — that every
//! convolution in this workspace ran until the blocked passes of
//! `pipemare_tensor::conv` replaced it. It survives here, outside every
//! library, as the oracle those passes are held to bit for bit: the same
//! unfold, the same three products through the public GEMM entry points,
//! the same fold, the same bias add and row sums the layer did around
//! them. `tests/simd_parity.rs` includes this file as a module, and so
//! (by path) does the `Conv2d` layer's own test in `crates/nn`.
//!
//! The unfold writes the channel-major patch matrix `(C·k·k, B·oh·ow)`,
//! one row per kernel tap and one column per output position; the fold
//! walks the taps `ky`, `kx` **downwards**, so every input-gradient
//! element receives its terms in ascending `(oy, ox)` order.

#![allow(dead_code)]

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
}

/// Bit patterns, every NaN mapped to one pattern: which NaN an operation
/// hands on when two meet depends on the instruction form the compiler
/// picked, where a NaN sits does not.
pub fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
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
