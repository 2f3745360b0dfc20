//! Blocked 2-D convolution: three GEMM-shaped passes over the image, with
//! no patch matrix.
//!
//! A convolution is the product `K (oc × C·k·k) · cols (C·k·k × B·oh·ow)`
//! where column `(b, oy, ox)` of `cols` is the input patch under that
//! output position. This module never writes `cols` down. Each pass runs
//! the register-tile microkernels of [`crate::kernels`] (scalar 8×8,
//! AVX2 6×16, AVX-512 8×32) over `mr × nr` tiles as the blocked GEMM
//! does, and differs from it only in where a panel comes from and where
//! a tile goes:
//!
//! | pass | A panels (`k × mr`) | B panels (`k × nr`) | tile sink |
//! |---|---|---|---|
//! | [`forward`] `y = K · cols` | `K`, packed once | `nr` consecutive output positions, one row per tap, copied as runs of a zero-bordered copy of the input | stored `0.0 + acc (+ bias)` into NCHW `y` |
//! | [`backward_weights`] `dW = dy · colsᵀ` | `dy`, interleaved per depth block | one row per output position, copied as runs of a channels-last zero-bordered copy of the input | carried across depth blocks; stored `0.0 + acc` with the lanes permuted back |
//! | [`backward_input`] `dx = fold(Kᵀ · dy)` | `Kᵀ`, packed once | `nr` consecutive positions of `dy` | added into a zero-bordered `dx`, taps descending |
//!
//! The batch is cut into chunks of whole images whose working copy stays
//! near [`CHUNK_FLOATS`]; per thread the scratch is that copy plus a few
//! panels — `O(input image) + O(C·k·k · nr)` — and nothing in it is sized
//! by the batch. Chunks of [`forward`] and [`backward_input`] write
//! disjoint images and run on the kernel pool.
//!
//! # Layouts
//!
//! *Zero-bordered, phase-split* (forward, input gradient): plane
//! `(image, channel)` is `H + 2·pad` rows; a row holds its `W + 2·pad`
//! values split by column phase, `row[(ix % s) · lp + ix / s]`, so that
//! the values one tap reads at consecutive output columns
//! (`ix = ox·s + kx`) are adjacent whatever the stride. Every geometry
//! takes this copy — with stride 1 and no padding it is the input again,
//! copied all the same.
//!
//! *Channels-last, zero-bordered* (weight gradient): `(image, iy, ix, c)`.
//! The `k·C` values that kernel row `ky` reads at one output position are
//! adjacent, so a B panel row is copied as at most a few runs; the price
//! is that panel lane `(ky, kx, c)` is not weight column `(c, ky, kx)`,
//! which is put right once, when the finished tiles are stored.
//!
//! # Numerics
//!
//! Every result keeps, bit for bit, what `im2col → GEMM → col2im`
//! produced (the dev-only crate `pipemare-conv-oracle` is that path, and
//! holds it in turn to convolution's seven-loop definition):
//!
//! * `y[b,o,oy,ox] = (0.0 + Σ_p fma(K[o,p], patch[p], ·)) (+ bias[o])`,
//!   `p = (c, ky, kx)` ascending from `+0.0`, padding taps included as
//!   real zeros (`∞ · 0` is a NaN there, as it was). The `0.0 +` is the
//!   GEMM's `C += acc` into a cleared `C`: a chain that rounds to `−0.0`
//!   comes out `+0.0`.
//! * `dW[o,p] = 0.0 + Σ_r fma(dy[r,o], patch_r[p], ·)`, `r = (b, oy, ox)`
//!   ascending: the depth is streamed in blocks but the tile is carried
//!   from block to block, so each element is still one chain.
//! * `dx[e] = 0.0 + v₁ + v₂ + …` over the taps that read `e`, **descending**
//!   — which is ascending output position — each `v = 0.0 + Σ_o
//!   fma(K[o,p], dy[r,o], ·)`. Panels ascend and taps descend inside a
//!   panel, and for one element a later tap always belongs to an earlier
//!   position, so the order is the same however positions are cut into
//!   panels. Taps that would read the padding add into the border of the
//!   zero-bordered `dx` and are dropped with it; `dy` itself gets no
//!   border, so no `∞ · 0` is invented.

use crate::kernels::{
    self, micro_tile, Layout, Product, SimdLevel, UnsafeSlice, MAX_TILE, PARALLEL_MIN_FLOPS,
};
use crate::pool::{self, ConvScratch};
use crate::telemetry::{kernel_record, kernel_timer, KernelKind};

/// Floats of working copy (zero-bordered input, or input gradient) one
/// chunk of images aims at: 128 KiB, at home in any L2.
pub const CHUNK_FLOATS: usize = 1 << 15;

/// Output positions per depth block of the weight gradient: a `128 × nr`
/// B panel and its A panels stay in L1 between tiles.
const DEPTH_BLOCK: usize = 128;

/// Longest run a panel copy moves at once — the widest tier's `nr`. Panel
/// and image buffers keep this much slack behind their last element.
const MAX_RUN: usize = 32;

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
    /// Checks that the kernel fits the padded input and that no extent is
    /// zero. [`out_h`](Self::out_h) and [`out_w`](Self::out_w) subtract in
    /// `usize`, so call this once where a geometry is built from sizes
    /// the caller does not control.
    ///
    /// # Panics
    ///
    /// Panics, naming the geometry, if it describes no convolution.
    pub fn validate(&self) {
        let fits = |extent: usize| extent + 2 * self.padding >= self.kernel;
        assert!(
            self.in_channels > 0
                && self.in_h > 0
                && self.in_w > 0
                && self.kernel > 0
                && self.stride > 0,
            "{self:?}: channels, height, width, kernel and stride must be positive"
        );
        assert!(
            fits(self.in_h) && fits(self.in_w),
            "{self:?}: the kernel is larger than the padded input"
        );
    }

    /// Output height after convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output positions per image (`out_h * out_w`).
    pub fn patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Values under one output position (`in_channels * kernel^2`): the
    /// depth of the forward product.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// One convolution: a geometry, the number of filters and the batch.
/// `x` is `(batch, in_channels, in_h, in_w)`, the kernel `(out_channels,
/// in_channels·k·k)`, `y` and `dy` `(batch, out_channels, out_h, out_w)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvProblem {
    /// Input and kernel extents.
    pub geom: Conv2dGeometry,
    /// Number of filters.
    pub out_channels: usize,
    /// Images in the batch.
    pub batch: usize,
}

impl ConvProblem {
    /// Elements of the input and of its gradient.
    pub fn input_len(&self) -> usize {
        self.batch * self.geom.in_channels * self.geom.in_h * self.geom.in_w
    }

    /// Elements of the output and of its gradient.
    pub fn output_len(&self) -> usize {
        self.batch * self.out_channels * self.geom.patches()
    }

    /// Elements of the kernel and of its gradient.
    pub fn kernel_len(&self) -> usize {
        self.out_channels * self.geom.patch_len()
    }

    /// `2 · oc · C·k·k · B·oh·ow`: what each of the three passes counts as.
    fn flops(&self) -> usize {
        2 * self.kernel_len() * self.batch * self.geom.patches()
    }
}

/// What the three passes derive from a problem and a tier.
#[derive(Clone, Copy)]
struct Plan {
    level: SimdLevel,
    mr: usize,
    nr: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    pad: usize,
    oc: usize,
    batch: usize,
    ow: usize,
    /// Output positions per image.
    plane: usize,
    /// Depth of the forward product, `C·k·k`.
    pl: usize,
    /// Padded height and width.
    hp: usize,
    wp: usize,
    /// Values per column phase of a phase-split row, and the row's pitch.
    lp: usize,
    pitch: usize,
    flops: usize,
}

/// One run of a panel copy: `len` values from `src` (relative to the
/// row's base in the source) to lane `dst` of the panel row.
#[derive(Clone, Copy, Default)]
struct Seg {
    dst: usize,
    src: usize,
    len: usize,
}

impl Plan {
    fn new(level: SimdLevel, problem: &ConvProblem) -> Plan {
        assert!(level.supported(), "SIMD level {} not supported by this CPU", level.name());
        let g = problem.geom;
        g.validate();
        assert!(problem.out_channels > 0, "{problem:?}: no output channels");
        let (mr, nr) = level.tile();
        let (hp, wp) = (g.in_h + 2 * g.padding, g.in_w + 2 * g.padding);
        let lp = wp.div_ceil(g.stride);
        Plan {
            level,
            mr,
            nr,
            c: g.in_channels,
            h: g.in_h,
            w: g.in_w,
            k: g.kernel,
            s: g.stride,
            pad: g.padding,
            oc: problem.out_channels,
            batch: problem.batch,
            ow: g.out_w(),
            plane: g.patches(),
            pl: g.patch_len(),
            hp,
            wp,
            lp,
            pitch: g.stride * lp,
            flops: problem.flops(),
        }
    }

    /// Floats of one image in the phase-split layout.
    fn image_floats(&self) -> usize {
        self.c * self.hp * self.pitch
    }

    /// `(chunks, images per chunk)`: the fewest chunks whose working copy
    /// stays near [`CHUNK_FLOATS`], the images spread evenly over them.
    fn chunks(&self) -> (usize, usize) {
        if self.batch == 0 {
            return (0, 0);
        }
        let most = (CHUNK_FLOATS / self.image_floats()).max(1);
        let per = self.batch.div_ceil(self.batch.div_ceil(most));
        (self.batch.div_ceil(per), per)
    }

    /// Runs `work` once per chunk, on the pool when the pass is large
    /// enough to pay for the dispatch.
    fn for_each_chunk(&self, work: impl Fn(usize, usize) + Sync) {
        let (chunks, per) = self.chunks();
        let work = |ci: usize| work(ci * per, per.min(self.batch - ci * per));
        if chunks > 1 && self.flops >= PARALLEL_MIN_FLOPS {
            pool::parallel_for(chunks, work);
        } else {
            (0..chunks).for_each(work);
        }
    }

    /// Fills `taps[p]`, `p = (c, ky, kx)`, with where that tap reads in a
    /// phase-split image relative to output position `(0, 0)`.
    fn tap_offsets(&self, taps: &mut [usize]) {
        let Plan { k, s, hp, lp, pitch, .. } = *self;
        let (first, rest) = taps.split_at_mut(k);
        first.iter_mut().enumerate().for_each(|(kx, tap)| *tap = kx % s * lp + kx / s);
        for (row, taps) in rest.chunks_exact_mut(k).enumerate() {
            let (ci, ky) = ((row + 1) / k, (row + 1) % k);
            taps.iter_mut().zip(&*first).for_each(|(tap, kx)| *tap = (ci * hp + ky) * pitch + kx);
        }
    }

    /// Cuts the output positions `n0..n1` of a chunk (position `n` is
    /// `(image n / plane, oy, ox)`) at output-row ends:
    /// `f(n − n0, image, oy, ox, len)`.
    fn for_each_row(
        &self,
        n0: usize,
        n1: usize,
        mut f: impl FnMut(usize, usize, usize, usize, usize),
    ) {
        let Plan { ow, plane, .. } = *self;
        let (mut g, mut oy, mut ox) = (n0 / plane, n0 % plane / ow, n0 % ow);
        let mut n = n0;
        while n < n1 {
            let len = (ow - ox).min(n1 - n);
            f(n - n0, g, oy, ox, len);
            n += len;
            (oy, ox) = if ox + len < ow { (oy, ox + len) } else { (oy + 1, 0) };
            if oy * ow == plane {
                (g, oy) = (g + 1, 0);
            }
        }
    }

    /// The same positions cut at image ends: `f(n − n0, image, pos, len)`.
    fn for_each_image(&self, n0: usize, n1: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
        let (mut g, mut pos) = (n0 / self.plane, n0 % self.plane);
        let mut n = n0;
        while n < n1 {
            let len = (self.plane - pos).min(n1 - n);
            f(n - n0, g, pos, len);
            n += len;
            (g, pos) = if pos + len < self.plane { (g, pos + len) } else { (g + 1, 0) };
        }
    }

    /// The runs of one panel of at most `nr` output positions in a
    /// phase-split chunk, as `segs[..count]`, with the copy width that
    /// covers the longest: `(count, width)`.
    fn row_segments(&self, n0: usize, n1: usize, segs: &mut [Seg; MAX_RUN]) -> (usize, usize) {
        let (image, row) = (self.image_floats(), self.s * self.pitch);
        let mut count = 0;
        self.for_each_row(n0, n1, |dst, g, oy, ox, len| {
            segs[count] = Seg { dst, src: g * image + oy * row + ox, len };
            count += 1;
        });
        (count, copy_width(&segs[..count]))
    }

    /// The runs of one panel of `dy` (or `y`) positions: `src` is relative
    /// to the first image of the chunk, channel 0.
    fn image_segments(&self, n0: usize, n1: usize, segs: &mut [Seg; MAX_RUN]) -> (usize, usize) {
        let mut count = 0;
        self.for_each_image(n0, n1, |dst, g, pos, len| {
            segs[count] = Seg { dst, src: g * self.oc * self.plane + pos, len };
            count += 1;
        });
        (count, copy_width(&segs[..count]))
    }

    /// The runs of weight-gradient panel `jp` — lanes `(ky, kx, c)` from
    /// `jp · nr` — in a channels-last chunk, relative to an output
    /// position's top-left pixel.
    fn tap_run_segments(&self, jp: usize, segs: &mut [Seg; MAX_RUN]) -> (usize, usize) {
        let run = self.k * self.c;
        let (j0, j1) = (jp * self.nr, ((jp + 1) * self.nr).min(self.pl));
        let (mut lane, mut count) = (j0, 0);
        while lane < j1 {
            let (ky, j) = (lane / run, lane % run);
            let len = (run - j).min(j1 - lane);
            segs[count] = Seg { dst: lane - j0, src: ky * self.wp * self.c + j, len };
            count += 1;
            lane += len;
        }
        (count, copy_width(&segs[..count]))
    }
}

/// Smallest power of two in `4..=MAX_RUN` that covers every run.
fn copy_width(segs: &[Seg]) -> usize {
    let longest = segs.iter().map(|seg| seg.len).max().unwrap_or(1);
    longest.next_power_of_two().clamp(4, MAX_RUN)
}

/// The first `len` elements of `buf`, grown if need be.
fn grown<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Builds panel rows by copying runs: row `r` of `dst` (pitch `nr`)
/// receives, for each segment, `seg.len` values from `src[rows[r] +
/// seg.src ..]` at lane `seg.dst`. Every copy moves `width` values — a
/// fixed size the compiler turns into whole-register moves — and the
/// surplus lands on lanes the next segment or the next row rewrites, or
/// that lie past the panel's last column, which nobody reads; rows and
/// segments are therefore visited in ascending order, and `dst` extends
/// `width` values past its last row. Only where the source itself ends is
/// a run copied at its true length.
fn gather(width: usize, src: &[f32], rows: &[usize], segs: &[Seg], nr: usize, dst: &mut [f32]) {
    match width {
        4 => gather_runs::<4>(src, rows, segs, nr, dst),
        8 => gather_runs::<8>(src, rows, segs, nr, dst),
        16 => gather_runs::<16>(src, rows, segs, nr, dst),
        _ => gather_runs::<MAX_RUN>(src, rows, segs, nr, dst),
    }
}

fn gather_runs<const W: usize>(
    src: &[f32],
    rows: &[usize],
    segs: &[Seg],
    nr: usize,
    dst: &mut [f32],
) {
    let dst_len = dst.len();
    for (r, &base) in rows.iter().enumerate() {
        let out = &mut dst[r * nr..(r * nr + nr + W).min(dst_len)];
        for seg in segs {
            let from = base + seg.src;
            match (src.get(from..from + W), out.get_mut(seg.dst..seg.dst + W)) {
                (Some(run), Some(into)) => into.copy_from_slice(run),
                _ => copy_short_run(src, from, out, seg),
            }
        }
    }
}

/// The run at the very end of a source or a panel, where `W` values are
/// not there to be moved: copied at its true length.
#[cold]
#[inline(never)]
fn copy_short_run(src: &[f32], from: usize, out: &mut [f32], seg: &Seg) {
    out[seg.dst..seg.dst + seg.len].copy_from_slice(&src[from..from + seg.len]);
}

/// The adjoint of [`gather`]: adds row `r` of `block` (pitch `nr`), lanes
/// `seg.dst..+seg.len`, into `dst[rows[r] + seg.src ..]` — exactly
/// `seg.len` values, since here the neighbours are live sums. Rows go
/// **last to first**: with `rows` the tap offsets in `(c, ky, kx)` order
/// that is taps descending within each channel, the order the input
/// gradient is summed in.
fn scatter_add(dst: &mut [f32], rows: &[usize], segs: &[Seg], nr: usize, block: &[f32]) {
    let len = segs.first().map_or(0, |seg| seg.len);
    match if segs.iter().all(|seg| seg.len == len) { len } else { 0 } {
        4 => scatter_runs::<4>(dst, rows, segs, nr, block),
        8 => scatter_runs::<8>(dst, rows, segs, nr, block),
        16 => scatter_runs::<16>(dst, rows, segs, nr, block),
        32 => scatter_runs::<32>(dst, rows, segs, nr, block),
        _ => scatter_runs::<0>(dst, rows, segs, nr, block),
    }
}

/// [`scatter_add`] for runs that all have length `L`, or of any lengths
/// if `L` is zero.
fn scatter_runs<const L: usize>(
    dst: &mut [f32],
    rows: &[usize],
    segs: &[Seg],
    nr: usize,
    block: &[f32],
) {
    for (r, &base) in rows.iter().enumerate().rev() {
        let row = &block[r * nr..(r + 1) * nr];
        for seg in segs {
            let len = if L == 0 { seg.len } else { L };
            let into = &mut dst[base + seg.src..][..len];
            into.iter_mut().zip(&row[seg.dst..][..len]).for_each(|(d, &v)| *d += v);
        }
    }
}

/// `dst.copy_from_slice(src)` for rows of an image: the usual widths are
/// moved as whole registers instead of through a `memcpy` call.
fn copy_row(dst: &mut [f32], src: &[f32]) {
    match src.len() {
        4 => dst[..4].copy_from_slice(&src[..4]),
        8 => dst[..8].copy_from_slice(&src[..8]),
        16 => dst[..16].copy_from_slice(&src[..16]),
        32 => dst[..32].copy_from_slice(&src[..32]),
        len => dst[..len].copy_from_slice(src),
    }
}

impl Plan {
    /// The interior of a phase-split row as one run per column phase, for
    /// the first `phases` phases: `(offset in the row, first input
    /// column)`; the run takes every `s`-th input column from there. With
    /// stride 1 that is the one run `(pad, 0)`.
    fn phase_runs(&self, phases: usize) -> impl Iterator<Item = (usize, usize)> {
        let Plan { w, s, pad, lp, .. } = *self;
        (0..phases).filter_map(move |phase| {
            let first = pad.saturating_sub(phase).div_ceil(s);
            let x = first * s + phase - pad;
            (x < w).then_some((phase * lp + first, x))
        })
    }

    /// The input rows some tap reads: all of them unless the kernel is
    /// shorter than the stride.
    fn rows_read(&self) -> impl Iterator<Item = usize> {
        let Plan { h, k, s, pad, hp, .. } = *self;
        (0..hp)
            .step_by(s)
            .flat_map(move |top| top..(top + k.min(s)).min(hp))
            .filter_map(move |iy| iy.checked_sub(pad).filter(|&y| y < h))
    }
}

/// Writes the zero-bordered, phase-split copy of `images` images of
/// `x_chunk` into `buf` and returns it with [`MAX_RUN`] zeros of slack.
/// Rows and column phases that no tap reads — a kernel smaller than the
/// stride leaves some — stay zero.
fn pad_chunk<'a>(plan: &Plan, x_chunk: &[f32], images: usize, buf: &'a mut Vec<f32>) -> &'a [f32] {
    let Plan { h, w, k, s, pad, hp, pitch, .. } = *plan;
    let out = grown(buf, images * plan.image_floats() + MAX_RUN);
    out.fill(0.0);
    for (at, x) in plan.phase_runs(k.min(s)) {
        for (g, src) in x_chunk.chunks_exact(h * w).enumerate() {
            for y in plan.rows_read() {
                let row = &mut out[(g * hp + y + pad) * pitch + at..];
                let src_row = &src[y * w + x..(y + 1) * w];
                if s == 1 {
                    copy_row(row, src_row);
                } else {
                    row.iter_mut().zip(src_row.chunks(s)).for_each(|(d, from)| *d = from[0]);
                }
            }
        }
    }
    out
}

/// The inverse of [`pad_chunk`]: copies the interior of a phase-split
/// chunk into `dx_chunk`, dropping the border. Rows and column phases
/// that no tap reads have no gradient: they are cleared, not copied.
fn unpad_chunk(plan: &Plan, padded: &[f32], dx_chunk: &mut [f32]) {
    let Plan { h, w, k, s, pad, hp, pitch, .. } = *plan;
    if k < s {
        dx_chunk.fill(0.0);
    }
    for (at, x) in plan.phase_runs(k.min(s)) {
        for (g, dst) in dx_chunk.chunks_exact_mut(h * w).enumerate() {
            for y in plan.rows_read() {
                let dst_row = &mut dst[y * w..(y + 1) * w];
                let row = &padded[(g * hp + y + pad) * pitch + at..];
                if s == 1 {
                    copy_row(dst_row, &row[..w]);
                } else {
                    dst_row[x..].chunks_mut(s).zip(row).for_each(|(into, &v)| into[0] = v);
                }
            }
        }
    }
}

/// Writes the channels-last zero-bordered copy `(image, iy, ix, c)` of
/// `images` images of `x_chunk` into `buf` and returns it with
/// [`MAX_RUN`] zeros of slack. As in [`pad_chunk`], rows and columns that
/// no tap reads stay zero.
fn channels_last_chunk<'a>(
    plan: &Plan,
    x_chunk: &[f32],
    images: usize,
    buf: &'a mut Vec<f32>,
) -> &'a [f32] {
    let Plan { c, h, w, k, s, pad, hp, wp, .. } = *plan;
    let out = grown(buf, images * hp * wp * c + MAX_RUN);
    out.fill(0.0);
    for g in 0..images {
        for y in plan.rows_read() {
            let rows = &x_chunk[g * c * h * w + y * w..];
            let at = ((g * hp + y + pad) * wp + pad) * c;
            if k < s {
                for x in plan.phase_runs(k).flat_map(|(_, first)| (first..w).step_by(s)) {
                    let pixel = &mut out[at + x * c..at + (x + 1) * c];
                    pixel.iter_mut().enumerate().for_each(|(ci, v)| *v = rows[ci * h * w + x]);
                }
            } else {
                kernels::interleave_rows(rows, h * w, c, w, c, &mut out[at..at + w * c]);
            }
        }
    }
    out
}

/// `y = K · patches (+ bias)`: every element of `y` is written.
///
/// # Panics
///
/// Panics if the geometry describes no convolution, a slice length does
/// not match `problem`, or the CPU does not support `level`.
pub fn forward(
    level: SimdLevel,
    problem: &ConvProblem,
    kernel: &[f32],
    bias: Option<&[f32]>,
    x: &[f32],
    y: &mut [f32],
) {
    let plan = Plan::new(level, problem);
    assert_eq!(kernel.len(), problem.kernel_len(), "conv forward: kernel length mismatch");
    assert_eq!(x.len(), problem.input_len(), "conv forward: input length mismatch");
    assert_eq!(y.len(), problem.output_len(), "conv forward: output length mismatch");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), plan.oc, "conv forward: bias length mismatch");
    }
    let timer = kernel_timer(KernelKind::Gemm, plan.flops as u64);
    let (x_image, y_image) = (plan.c * plan.h * plan.w, plan.oc * plan.plane);
    pool::with_pack_a_scratch(|apack| {
        let packed = kernels::pack_a(
            &Product::dense(Layout::NN, plan.oc, plan.pl, 0),
            kernel,
            0,
            plan.oc,
            plan.mr,
            apack,
        );
        let apack = &apack[..packed];
        let y_out = UnsafeSlice::new(y);
        plan.for_each_chunk(|b0, images| {
            // SAFETY: a chunk writes the images `b0..b0 + images` of `y`
            // and no other; chunks do not share an image.
            let y_chunk = unsafe { y_out.slice_mut(b0 * y_image, images * y_image) };
            forward_chunk(&plan, apack, bias, &x[b0 * x_image..][..images * x_image], y_chunk);
        });
    });
    kernel_record(timer);
}

fn forward_chunk(
    plan: &Plan,
    apack: &[f32],
    bias: Option<&[f32]>,
    x_chunk: &[f32],
    y_chunk: &mut [f32],
) {
    let Plan { level, mr, nr, oc, plane, pl, .. } = *plan;
    let images = y_chunk.len() / (oc * plane);
    pool::with_conv_workspace(|ws| {
        pool::with_pack_b_scratch(|bpack| {
            let ConvScratch { image, offsets, .. } = ws;
            let source = pad_chunk(plan, x_chunk, images, image);
            let taps = grown(offsets, pl);
            plan.tap_offsets(taps);
            let bpanel = grown(bpack, pl * nr + MAX_RUN);
            let mut acc = [0.0f32; MAX_TILE];
            let acc = &mut acc[..mr * nr];
            let mut segs = [Seg::default(); MAX_RUN];
            let positions = images * plane;
            for n0 in (0..positions).step_by(nr) {
                let n1 = (n0 + nr).min(positions);
                let (count, width) = plan.row_segments(n0, n1, &mut segs);
                gather(width, source, taps, &segs[..count], nr, bpanel);
                for ip in 0..oc.div_ceil(mr) {
                    let a_panel = &apack[ip * pl * mr..(ip + 1) * pl * mr];
                    micro_tile(level, pl, a_panel, &bpanel[..pl * nr], acc, false);
                    plan.for_each_image(n0, n1, |off, g, pos, len| {
                        for o in ip * mr..((ip + 1) * mr).min(oc) {
                            let out = &mut y_chunk[(g * oc + o) * plane + pos..][..len];
                            let tile = &acc[(o - ip * mr) * nr + off..][..len];
                            match bias {
                                Some(bias) => out
                                    .iter_mut()
                                    .zip(tile)
                                    .for_each(|(y, &v)| *y = (0.0 + v) + bias[o]),
                                None => out.iter_mut().zip(tile).for_each(|(y, &v)| *y = 0.0 + v),
                            }
                        }
                    });
                }
            }
        })
    });
}

/// `dW = dy · patchesᵀ`: every element of `dw` is written.
///
/// # Panics
///
/// As [`forward`].
pub fn backward_weights(
    level: SimdLevel,
    problem: &ConvProblem,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
) {
    let plan = Plan::new(level, problem);
    assert_eq!(x.len(), problem.input_len(), "conv backward_weights: input length mismatch");
    assert_eq!(dy.len(), problem.output_len(), "conv backward_weights: dy length mismatch");
    assert_eq!(dw.len(), problem.kernel_len(), "conv backward_weights: dW length mismatch");
    let timer = kernel_timer(KernelKind::GemmNt, plan.flops as u64);
    let Plan { level, mr, nr, c, h, w, k, s, oc, plane, pl, hp, wp, .. } = plan;
    let (row_panels, col_panels) = (oc.div_ceil(mr), pl.div_ceil(nr));
    let a_pitch = DEPTH_BLOCK * mr;
    pool::with_pack_a_scratch(|apack| {
        pool::with_pack_b_scratch(|bpack| {
            pool::with_conv_workspace(|ws| {
                let ConvScratch { image, tiles, offsets } = ws;
                let apanels = grown(apack, row_panels * a_pitch);
                let bpanel = grown(bpack, DEPTH_BLOCK * nr + MAX_RUN);
                let tiles = grown(tiles, row_panels * col_panels * mr * nr);
                tiles.fill(0.0);
                let bases = grown(offsets, DEPTH_BLOCK);
                let mut segs = [Seg::default(); MAX_RUN];
                let (chunks, per) = plan.chunks();
                for b0 in (0..chunks).map(|ci| ci * per) {
                    let images = per.min(plan.batch - b0);
                    let x_chunk = &x[b0 * c * h * w..][..images * c * h * w];
                    let source = channels_last_chunk(&plan, x_chunk, images, image);
                    let positions = images * plane;
                    for n0 in (0..positions).step_by(DEPTH_BLOCK) {
                        let n1 = (n0 + DEPTH_BLOCK).min(positions);
                        let depth = n1 - n0;
                        for ip in 0..row_panels {
                            let rows = mr.min(oc - ip * mr);
                            let panel = &mut apanels[ip * a_pitch..][..depth * mr];
                            if rows < mr {
                                panel.fill(0.0);
                            }
                            plan.for_each_image(n0, n1, |off, g, pos, len| {
                                let from = &dy[((b0 + g) * oc + ip * mr) * plane + pos..];
                                let into = &mut panel[off * mr..(off + len) * mr];
                                kernels::interleave_rows(from, plane, rows, len, mr, into);
                            });
                        }
                        plan.for_each_row(n0, n1, |off, g, oy, ox, len| {
                            let first = ((g * hp + oy * s) * wp + ox * s) * c;
                            let bases = &mut bases[off..off + len];
                            bases.iter_mut().enumerate().for_each(|(i, b)| *b = first + i * s * c);
                        });
                        for jp in 0..col_panels {
                            let (count, width) = plan.tap_run_segments(jp, &mut segs);
                            gather(width, source, &bases[..depth], &segs[..count], nr, bpanel);
                            for ip in 0..row_panels {
                                micro_tile(
                                    level,
                                    depth,
                                    &apanels[ip * a_pitch..][..depth * mr],
                                    &bpanel[..depth * nr],
                                    &mut tiles[(ip * col_panels + jp) * mr * nr..][..mr * nr],
                                    true,
                                );
                            }
                        }
                    }
                }
                // Lane `(ky, kx, c)` of the panels is column `(c, ky, kx)`
                // of the stored kernel gradient.
                for (o, dw_row) in dw.chunks_exact_mut(pl).enumerate() {
                    let row = &tiles[o / mr * col_panels * mr * nr + o % mr * nr..];
                    let (mut tile, mut lane) = (0, 0);
                    for ky in 0..k {
                        for kx in 0..k {
                            for ci in 0..c {
                                dw_row[(ci * k + ky) * k + kx] = 0.0 + row[tile + lane];
                                lane += 1;
                                if lane == nr {
                                    (tile, lane) = (tile + mr * nr, 0);
                                }
                            }
                        }
                    }
                }
            })
        })
    });
    kernel_record(timer);
}

/// `dx = fold(Kᵀ · dy)`: every element of `dx` is written.
///
/// # Panics
///
/// As [`forward`].
pub fn backward_input(
    level: SimdLevel,
    problem: &ConvProblem,
    kernel: &[f32],
    dy: &[f32],
    dx: &mut [f32],
) {
    let plan = Plan::new(level, problem);
    assert_eq!(kernel.len(), problem.kernel_len(), "conv backward_input: kernel length mismatch");
    assert_eq!(dy.len(), problem.output_len(), "conv backward_input: dy length mismatch");
    assert_eq!(dx.len(), problem.input_len(), "conv backward_input: dx length mismatch");
    let timer = kernel_timer(KernelKind::GemmTn, plan.flops as u64);
    let (x_image, y_image) = (plan.c * plan.h * plan.w, plan.oc * plan.plane);
    pool::with_pack_a_scratch(|apack| {
        let packed = kernels::pack_a(
            &Product::dense(Layout::TN, plan.pl, plan.oc, 0),
            kernel,
            0,
            plan.pl,
            plan.mr,
            apack,
        );
        let apack = &apack[..packed];
        let dx_out = UnsafeSlice::new(dx);
        plan.for_each_chunk(|b0, images| {
            // SAFETY: a chunk writes the images `b0..b0 + images` of `dx`
            // and no other; chunks do not share an image.
            let dx_chunk = unsafe { dx_out.slice_mut(b0 * x_image, images * x_image) };
            let dy_chunk = &dy[b0 * y_image..][..images * y_image];
            pool::with_conv_workspace(|ws| {
                let ConvScratch { image, tiles, offsets } = ws;
                let padded = grown(image, images * plan.image_floats());
                padded.fill(0.0);
                fold_chunk(&plan, apack, dy_chunk, padded, tiles, offsets);
                unpad_chunk(&plan, padded, dx_chunk);
            });
        });
    });
    kernel_record(timer);
}

/// Adds `fold(Kᵀ · dy_chunk)` into `sums`, a cleared phase-split chunk:
/// one panel of output positions at a time, the `pl × nr` block of
/// per-tap values goes to `tiles` and from there into `sums`.
fn fold_chunk(
    plan: &Plan,
    apack: &[f32],
    dy_chunk: &[f32],
    sums: &mut [f32],
    tiles: &mut Vec<f32>,
    offsets: &mut Vec<usize>,
) {
    let Plan { level, mr, nr, oc, plane, pl, .. } = *plan;
    let row_panels = pl.div_ceil(mr);
    pool::with_pack_b_scratch(|bpack| {
        let (channels, taps) = grown(offsets, oc + pl).split_at_mut(oc);
        channels.iter_mut().enumerate().for_each(|(o, at)| *at = o * plane);
        plan.tap_offsets(taps);
        let block = grown(tiles, row_panels * mr * nr);
        let bpanel = grown(bpack, oc * nr + MAX_RUN);
        let mut segs = [Seg::default(); MAX_RUN];
        let positions = dy_chunk.len() / (oc * plane);
        let positions = positions * plane;
        for n0 in (0..positions).step_by(nr) {
            let n1 = (n0 + nr).min(positions);
            let (count, width) = plan.image_segments(n0, n1, &mut segs);
            gather(width, dy_chunk, channels, &segs[..count], nr, bpanel);
            for (ip, tile) in block.chunks_exact_mut(mr * nr).enumerate() {
                let a_panel = &apack[ip * oc * mr..(ip + 1) * oc * mr];
                micro_tile(level, oc, a_panel, &bpanel[..oc * nr], tile, false);
            }
            let (count, _) = plan.row_segments(n0, n1, &mut segs);
            scatter_add(sums, taps, &segs[..count], nr, block);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry { in_channels: c, in_h: h, in_w: w, kernel: k, stride: s, padding: p }
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
    #[should_panic(expected = "the kernel is larger than the padded input")]
    fn a_kernel_larger_than_the_padded_input_is_refused_by_name() {
        geom(2, 3, 3, 7, 1, 1).validate();
    }

    #[test]
    #[should_panic(expected = "height, width, kernel and stride must be positive")]
    fn an_empty_plane_is_refused_by_name_even_where_the_padding_covers_the_kernel() {
        geom(2, 0, 4, 3, 1, 2).validate();
    }

    #[test]
    fn chunks_cover_the_batch_evenly_and_never_grow_with_it() {
        let problem =
            |batch| ConvProblem { geom: geom(12, 16, 16, 3, 1, 1), out_channels: 12, batch };
        for batch in [1, 7, 10, 80, 81] {
            let plan = Plan::new(SimdLevel::Scalar, &problem(batch));
            let (chunks, per) = plan.chunks();
            assert!(per * plan.image_floats() <= CHUNK_FLOATS, "batch {batch}: {per} per chunk");
            assert!((chunks - 1) * per < batch && batch <= chunks * per, "batch {batch}");
        }
        // One image larger than the target is still one chunk per image.
        let big = ConvProblem { geom: geom(64, 64, 64, 3, 1, 1), out_channels: 8, batch: 3 };
        assert_eq!(Plan::new(SimdLevel::Scalar, &big).chunks(), (3, 1));
    }

    #[test]
    fn phase_split_copy_round_trips_and_taps_read_what_they_should() {
        // Stride 2, padding 1: tap (ky, kx) at output (oy, ox) must read
        // input (2·oy + ky − 1, 2·ox + kx − 1), zero outside.
        let problem = ConvProblem { geom: geom(2, 5, 7, 3, 2, 1), out_channels: 1, batch: 2 };
        let plan = Plan::new(SimdLevel::Scalar, &problem);
        let x: Vec<f32> = (0..problem.input_len()).map(|i| 1.0 + i as f32).collect();
        let mut buf = Vec::new();
        let padded = pad_chunk(&plan, &x, 2, &mut buf).to_vec();
        let mut segs = [Seg::default(); MAX_RUN];
        let positions = 2 * plan.plane;
        let (count, _) = plan.row_segments(0, positions.min(MAX_RUN), &mut segs);
        let mut taps = vec![0; plan.pl];
        plan.tap_offsets(&mut taps);
        for p in 0..plan.pl {
            let (ci, ky, kx) = (p / 9, p % 9 / 3, p % 3);
            for seg in &segs[..count] {
                for i in 0..seg.len {
                    let n = seg.dst + i;
                    let (g, oy, ox) = (n / plan.plane, n % plan.plane / plan.ow, n % plan.ow);
                    let (iy, ix) = ((2 * oy + ky) as isize - 1, (2 * ox + kx) as isize - 1);
                    let want = if (0..5).contains(&iy) && (0..7).contains(&ix) {
                        x[((g * 2 + ci) * 5 + iy as usize) * 7 + ix as usize]
                    } else {
                        0.0
                    };
                    assert_eq!(padded[taps[p] + seg.src + i], want, "tap {p} at {n}");
                }
            }
        }
        let mut back = vec![f32::NAN; x.len()];
        unpad_chunk(&plan, &padded, &mut back);
        assert_eq!(back, x);
    }
}
