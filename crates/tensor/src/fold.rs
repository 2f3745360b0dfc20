//! Per-slice sequential sums over `(outer, slices, run)` data: the
//! statistics passes of batch-, layer- and group-norm.
//!
//! The data is `outer × slices` contiguous runs of `run` values, slice
//! `s` owning the runs `(o, s)` for every `o`. Each fold returns, per
//! slice, sums taken over that slice's elements in `(o, j)` order — one
//! dependency chain per sum, the bits of a plain loop over the slice.
//! What a normalisation layer calls a slice decides the dims:
//!
//! | layer | outer | slices | run |
//! |---|---|---|---|
//! | batch-norm over `(B, C, H, W)` | `B` | `C` | `H·W` |
//! | layer-norm over rows of `D` | 1 | rows | `D` |
//! | group-norm, `G` groups | 1 | `B·G` | `C/G·H·W` |
//!
//! # Lanes across slices
//!
//! A sum over one slice cannot be vectorised along the slice without
//! changing its order, so the vector tiers put *different slices* in the
//! lanes: `N` runs (one per slice) × `N` positions are loaded as `N`
//! vectors along the runs, transposed in registers (16×16 on AVX-512,
//! 8×8 on AVX2) so that vector `j` holds position `j` of all `N` slices,
//! and added to the accumulators one position at a time. Lane `i` of an
//! accumulator therefore sees slice `i`'s elements one after another in
//! the order the scalar loop visits them, through the same IEEE
//! operations (no FMA, no reassociation): not one bit moves, and the
//! three tiers agree with each other and with the index-list code the
//! layers started from. A ragged last block of slices loads zeros for the
//! missing rows and stores only the lanes that exist; a run tail takes a
//! masked load and adds only the positions that exist.
//!
//! The scalar tier walks [`SIDE`] slices side by side with strided loads,
//! so that their chains overlap in the pipeline instead of each waiting
//! out the adder's latency alone.

use crate::kernels::SimdLevel;

/// Extents of the folded data: `outer × slices` runs of `run` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldDims {
    /// Times each slice recurs (batch-norm's batch).
    pub outer: usize,
    /// Number of slices, i.e. of sums returned.
    pub slices: usize,
    /// Contiguous values per `(outer, slice)` pair.
    pub run: usize,
}

impl FoldDims {
    /// Elements of the folded data.
    pub fn len(&self) -> usize {
        self.outer * self.slices * self.run
    }

    /// Whether there is nothing to fold.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements of one slice.
    pub fn slice_len(&self) -> usize {
        self.outer * self.run
    }
}

/// `out[s] = Σ x` over slice `s`, from `−0.0` (the additive identity, as
/// `Iterator::sum` starts).
///
/// # Panics
///
/// Panics if a length does not match `dims` or the CPU lacks `level`.
pub fn sum(level: SimdLevel, dims: FoldDims, x: &[f32], out: &mut [f32]) {
    fold::<1, 0, 1, Sum>(level, dims, [x], [], [out]);
}

/// `out[s] = Σ (x − mean[s])²` over slice `s`, from `−0.0`.
///
/// # Panics
///
/// As [`sum`].
pub fn sq_dev(level: SimdLevel, dims: FoldDims, x: &[f32], mean: &[f32], out: &mut [f32]) {
    fold::<1, 1, 1, SqDev>(level, dims, [x], [mean], [out]);
}

/// `(sum_a[s], sum_ab[s]) = (Σ a, Σ a·b)` over slice `s`, from `+0.0`:
/// the two means a normalisation backward subtracts (`a = dx̂`, `b = x̂`),
/// and a per-channel `(dβ, dγ)` (`a = dy`, `b = x̂`).
///
/// # Panics
///
/// As [`sum`].
pub fn dot(
    level: SimdLevel,
    dims: FoldDims,
    a: &[f32],
    b: &[f32],
    sum_a: &mut [f32],
    sum_ab: &mut [f32],
) {
    fold::<2, 0, 2, Dot>(level, dims, [a, b], [], [sum_a, sum_ab]);
}

/// The four sums of a batch-norm backward, per slice, from `+0.0`:
/// `[Σ g·x̂, Σ g, Σ dx̂, Σ dx̂·x̂]` with `dx̂ = g·gamma[s]`.
///
/// # Panics
///
/// As [`sum`].
pub fn norm_grad(
    level: SimdLevel,
    dims: FoldDims,
    g: &[f32],
    xhat: &[f32],
    gamma: &[f32],
    out: [&mut [f32]; 4],
) {
    fold::<2, 1, 4, NormGrad>(level, dims, [g, xhat], [gamma], out);
}

/// The arithmetic a fold step is written in, on one `f32` or on a vector
/// of them. Every operation is the IEEE one on each lane, so a step
/// computes per lane what it computes on a plain `f32`.
///
/// # Safety
///
/// The vector implementations execute AVX2 / AVX-512F instructions:
/// callers must have checked [`SimdLevel::supported`] for the tier whose
/// type they name.
trait Lane: Copy {
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
}

/// A vector of `N` lanes: what [`fold_lanes`] needs beyond arithmetic.
///
/// # Safety
///
/// As [`Lane`]. `load` reads and `store` writes the first `n ≤ N` lanes
/// at `p` and touches nothing past them.
trait Lanes<const N: usize>: Lane {
    unsafe fn splat(v: f32) -> Self;
    /// Lanes `n..` are zero.
    unsafe fn load(p: *const f32, n: usize) -> Self;
    unsafe fn store(self, p: *mut f32, n: usize);
    /// Row `i`, lane `j` ↔ row `j`, lane `i`.
    unsafe fn transpose(rows: &mut [Self; N]);
}

impl Lane for f32 {
    #[inline(always)]
    unsafe fn add(self, o: f32) -> f32 {
        self + o
    }
    #[inline(always)]
    unsafe fn sub(self, o: f32) -> f32 {
        self - o
    }
    #[inline(always)]
    unsafe fn mul(self, o: f32) -> f32 {
        self * o
    }
}

/// One fold: `I` input arrays, `C` per-slice coefficient arrays, `A`
/// sums. `step` advances the sums by one element of each lane's slice.
trait Fold<const I: usize, const C: usize, const A: usize> {
    /// What every sum starts from.
    const INIT: f32;

    /// # Safety
    ///
    /// As [`Lane`]: the tier of `V` is supported.
    unsafe fn step<V: Lane>(acc: &mut [V; A], x: [V; I], coef: &[V; C]);
}

struct Sum;
impl Fold<1, 0, 1> for Sum {
    const INIT: f32 = -0.0;
    #[inline(always)]
    unsafe fn step<V: Lane>(acc: &mut [V; 1], [x]: [V; 1], _: &[V; 0]) {
        acc[0] = acc[0].add(x);
    }
}

struct SqDev;
impl Fold<1, 1, 1> for SqDev {
    const INIT: f32 = -0.0;
    #[inline(always)]
    unsafe fn step<V: Lane>(acc: &mut [V; 1], [x]: [V; 1], [mean]: &[V; 1]) {
        let d = x.sub(*mean);
        acc[0] = acc[0].add(d.mul(d));
    }
}

struct Dot;
impl Fold<2, 0, 2> for Dot {
    const INIT: f32 = 0.0;
    #[inline(always)]
    unsafe fn step<V: Lane>(acc: &mut [V; 2], [a, b]: [V; 2], _: &[V; 0]) {
        acc[0] = acc[0].add(a);
        acc[1] = acc[1].add(a.mul(b));
    }
}

/// `[Σ g·x̂, Σ g, Σ dx̂, Σ dx̂·x̂]`, `dx̂ = g·γ`.
struct NormGrad;
impl Fold<2, 1, 4> for NormGrad {
    const INIT: f32 = 0.0;
    #[inline(always)]
    unsafe fn step<V: Lane>(acc: &mut [V; 4], [g, xhat]: [V; 2], [gamma]: &[V; 1]) {
        let dxhat = g.mul(*gamma);
        acc[0] = acc[0].add(g.mul(xhat));
        acc[1] = acc[1].add(g);
        acc[2] = acc[2].add(dxhat);
        acc[3] = acc[3].add(dxhat.mul(xhat));
    }
}

/// Checks the lengths and runs fold `F` at tier `level`.
fn fold<const I: usize, const C: usize, const A: usize, F: Fold<I, C, A>>(
    level: SimdLevel,
    dims: FoldDims,
    inputs: [&[f32]; I],
    coefs: [&[f32]; C],
    out: [&mut [f32]; A],
) {
    assert!(level.supported(), "SIMD level {} not supported by this CPU", level.name());
    assert!(inputs.iter().all(|x| x.len() == dims.len()), "fold: input length is not {dims:?}");
    assert!(
        coefs.iter().all(|c| c.len() == dims.slices) && out.iter().all(|o| o.len() == dims.slices),
        "fold: a per-slice array does not hold {} values",
        dims.slices
    );
    match level {
        SimdLevel::Scalar => fold_scalar::<I, C, A, F>(dims, inputs, coefs, out),
        // SAFETY: `supported()` held for the tier, every input holds
        // `dims.len()` values and every per-slice array `dims.slices`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::fold_avx2::<I, C, A, F>(dims, inputs, coefs, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::fold_avx512::<I, C, A, F>(dims, inputs, coefs, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar SIMD level on a non-x86_64 target"),
    }
}

/// Slices whose sums the scalar tier advances together.
const SIDE: usize = 16;

/// The portable tier and the order every tier keeps: slice `s` visits
/// its elements `(o, j)` ascending, each sum one chain.
fn fold_scalar<const I: usize, const C: usize, const A: usize, F: Fold<I, C, A>>(
    FoldDims { outer, slices, run }: FoldDims,
    inputs: [&[f32]; I],
    coefs: [&[f32]; C],
    mut out: [&mut [f32]; A],
) {
    for first in (0..slices).step_by(SIDE) {
        let side = SIDE.min(slices - first);
        let mut accs = [[F::INIT; A]; SIDE];
        for o in 0..outer {
            for j in 0..run {
                for (lane, acc) in accs[..side].iter_mut().enumerate() {
                    let s = first + lane;
                    let i = (o * slices + s) * run + j;
                    // SAFETY: `f32` lanes are plain arithmetic.
                    unsafe { F::step::<f32>(acc, inputs.map(|x| x[i]), &coefs.map(|c| c[s])) };
                }
            }
        }
        for (a, sums) in out.iter_mut().enumerate() {
            for (sum, acc) in sums[first..first + side].iter_mut().zip(&accs) {
                *sum = acc[a];
            }
        }
    }
}

/// The lane-across-slice fold at a vector tier.
///
/// # Safety
///
/// The tier of `V` is supported; every input holds `dims.len()` values,
/// every coefficient and output array `dims.slices`.
#[inline(always)]
unsafe fn fold_lanes<
    const N: usize,
    V: Lanes<N>,
    const I: usize,
    const C: usize,
    const A: usize,
    F: Fold<I, C, A>,
>(
    FoldDims { outer, slices, run }: FoldDims,
    inputs: [&[f32]; I],
    coefs: [&[f32]; C],
    mut out: [&mut [f32]; A],
) {
    let zero = V::splat(0.0);
    for first in (0..slices).step_by(N) {
        let side = N.min(slices - first);
        let coef = coefs.map(|c| V::load(c.as_ptr().add(first), side));
        let mut acc = [V::splat(F::INIT); A];
        for o in 0..outer {
            let base = (o * slices + first) * run;
            for j0 in (0..run).step_by(N) {
                let width = N.min(run - j0);
                // Position `j0 + j` of the block's slices, for each input.
                let columns = inputs.map(|x| {
                    let mut rows = [zero; N];
                    let at = x.as_ptr().add(base + j0);
                    for (r, row) in rows[..side].iter_mut().enumerate() {
                        *row = V::load(at.add(r * run), width);
                    }
                    V::transpose(&mut rows);
                    rows
                });
                // `j` indexes the inner arrays: clippy's iterator is over the outer.
                #[allow(clippy::needless_range_loop)]
                for j in 0..width {
                    F::step::<V>(&mut acc, std::array::from_fn(|i| columns[i][j]), &coef);
                }
            }
        }
        for (sums, acc) in out.iter_mut().zip(acc) {
            acc.store(sums.as_mut_ptr().add(first), side);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{fold_lanes, Fold, FoldDims, Lane, Lanes};

    /// # Safety
    ///
    /// AVX2 is available; lengths as [`fold_lanes`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_avx2<
        const I: usize,
        const C: usize,
        const A: usize,
        F: Fold<I, C, A>,
    >(
        dims: FoldDims,
        inputs: [&[f32]; I],
        coefs: [&[f32]; C],
        out: [&mut [f32]; A],
    ) {
        fold_lanes::<8, __m256, I, C, A, F>(dims, inputs, coefs, out)
    }

    /// # Safety
    ///
    /// AVX-512F is available; lengths as [`fold_lanes`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fold_avx512<
        const I: usize,
        const C: usize,
        const A: usize,
        F: Fold<I, C, A>,
    >(
        dims: FoldDims,
        inputs: [&[f32]; I],
        coefs: [&[f32]; C],
        out: [&mut [f32]; A],
    ) {
        fold_lanes::<16, __m512, I, C, A, F>(dims, inputs, coefs, out)
    }

    /// `_mm256_maskload_ps` masks by sign bit: the window starting at
    /// `8 − n` has its first `n` lanes set.
    static FIRST_LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    #[inline(always)]
    unsafe fn first_lanes(n: usize) -> __m256i {
        debug_assert!(n <= 8);
        _mm256_loadu_si256(FIRST_LANES.as_ptr().add(8 - n).cast())
    }

    impl Lane for __m256 {
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_ps(self, o)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            _mm256_sub_ps(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm256_mul_ps(self, o)
        }
    }

    impl Lanes<8> for __m256 {
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32, n: usize) -> Self {
            if n == 8 {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, first_lanes(n))
            }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32, n: usize) {
            _mm256_maskstore_ps(p, first_lanes(n), self)
        }
        /// Pairs of rows, then quads within each 128-bit half, then the
        /// halves: 24 shuffles.
        #[inline(always)]
        unsafe fn transpose(r: &mut [Self; 8]) {
            let mut t = [_mm256_setzero_ps(); 8];
            for i in 0..4 {
                t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            let mut u = [_mm256_setzero_ps(); 8];
            for i in 0..2 {
                u[4 * i] = _mm256_shuffle_ps::<0x44>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 1] = _mm256_shuffle_ps::<0xEE>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 2] = _mm256_shuffle_ps::<0x44>(t[4 * i + 1], t[4 * i + 3]);
                u[4 * i + 3] = _mm256_shuffle_ps::<0xEE>(t[4 * i + 1], t[4 * i + 3]);
            }
            for k in 0..4 {
                r[k] = _mm256_permute2f128_ps::<0x20>(u[k], u[4 + k]);
                r[4 + k] = _mm256_permute2f128_ps::<0x31>(u[k], u[4 + k]);
            }
        }
    }

    #[inline(always)]
    fn first_lanes_16(n: usize) -> __mmask16 {
        debug_assert!(n <= 16);
        ((1u32 << n) - 1) as __mmask16
    }

    impl Lane for __m512 {
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm512_add_ps(self, o)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            _mm512_sub_ps(self, o)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm512_mul_ps(self, o)
        }
    }

    impl Lanes<16> for __m512 {
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32, n: usize) -> Self {
            if n == 16 {
                _mm512_loadu_ps(p)
            } else {
                _mm512_maskz_loadu_ps(first_lanes_16(n), p)
            }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32, n: usize) {
            _mm512_mask_storeu_ps(p, first_lanes_16(n), self)
        }
        /// Pairs of rows, quads within each 128-bit quarter, then two
        /// rounds over the quarters: 64 shuffles.
        #[inline(always)]
        unsafe fn transpose(r: &mut [Self; 16]) {
            let mut t = [_mm512_setzero_ps(); 16];
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            let mut u = [_mm512_setzero_ps(); 16];
            for i in 0..4 {
                u[4 * i] = _mm512_shuffle_ps::<0x44>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 1] = _mm512_shuffle_ps::<0xEE>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 2] = _mm512_shuffle_ps::<0x44>(t[4 * i + 1], t[4 * i + 3]);
                u[4 * i + 3] = _mm512_shuffle_ps::<0xEE>(t[4 * i + 1], t[4 * i + 3]);
            }
            // `u[4i + k]`, quarter `q`: rows `4i..4i + 4` at column `4q + k`.
            for k in 0..4 {
                let even_lo = _mm512_shuffle_f32x4::<0x88>(u[k], u[4 + k]);
                let odd_lo = _mm512_shuffle_f32x4::<0xDD>(u[k], u[4 + k]);
                let even_hi = _mm512_shuffle_f32x4::<0x88>(u[8 + k], u[12 + k]);
                let odd_hi = _mm512_shuffle_f32x4::<0xDD>(u[8 + k], u[12 + k]);
                r[k] = _mm512_shuffle_f32x4::<0x88>(even_lo, even_hi);
                r[4 + k] = _mm512_shuffle_f32x4::<0x88>(odd_lo, odd_hi);
                r[8 + k] = _mm512_shuffle_f32x4::<0xDD>(even_lo, even_hi);
                r[12 + k] = _mm512_shuffle_f32x4::<0xDD>(odd_lo, odd_hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runnable_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|l| l.supported())
            .collect()
    }

    #[test]
    fn empty_slices_return_the_identity() {
        for level in runnable_levels() {
            let mut out = [f32::NAN; 3];
            sum(level, FoldDims { outer: 0, slices: 3, run: 4 }, &[], &mut out);
            assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
            let (mut a, mut b) = ([f32::NAN; 3], [f32::NAN; 3]);
            dot(level, FoldDims { outer: 2, slices: 3, run: 0 }, &[], &[], &mut a, &mut b);
            assert!(a.iter().chain(&b).all(|v| v.to_bits() == 0));
        }
    }
}
