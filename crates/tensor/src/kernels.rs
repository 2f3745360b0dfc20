//! Cache-blocked, register-tiled GEMM kernels with runtime SIMD
//! dispatch and optional pool-parallel execution.
//!
//! # Algorithm
//!
//! The blocked path packs both operands into contiguous micro-panels and
//! drives an `mr × nr` register-tile microkernel:
//!
//! * **B** is packed once per call into column panels of `nr` columns,
//!   zero-padded to a multiple of `nr` (layout `[panel][p][c]`, so the
//!   microkernel streams it contiguously).
//! * **A** is packed per row-block of [`MC`] rows into the packing
//!   thread's scratch buffer (owned by [`crate::pool`], allocated once
//!   per worker thread), as row panels of `mr` rows (layout
//!   `[panel][p][r]`).
//! * The microkernel accumulates a full-depth `mr × nr` tile in
//!   registers: `acc[r][c] += a[p][r] · b[p][c]` for `p = 0, 1, …, k−1`.
//!
//! # SIMD dispatch
//!
//! The microkernel comes in three tiers, picked once per process by
//! [`simd_level`] (runtime CPU detection, overridable with the
//! `PIPEMARE_SIMD` environment variable):
//!
//! | level                    | tile    | microkernel                          |
//! |--------------------------|---------|--------------------------------------|
//! | [`SimdLevel::Scalar`]    | [`MR`]×[`NR`] (8×8) | portable `f32::mul_add` loop |
//! | [`SimdLevel::Avx2`]      | 6×16    | `std::arch` AVX2 + FMA, 12 `ymm` accumulators |
//! | [`SimdLevel::Avx512`]    | 8×32    | `std::arch` AVX-512F, 16 `zmm` accumulators, depth unrolled ×2 |
//!
//! `PIPEMARE_SIMD` accepts `off`/`scalar`/`0` (force the portable
//! fallback), `avx2` or `avx512` (force a tier; panics if the CPU lacks
//! it), and `auto`/`on`/empty (detect, the default).
//!
//! # Numerics and determinism
//!
//! Every production path — the scalar small-size fallback, the blocked
//! kernel at **any** SIMD tier, and the pool-parallel blocked kernel —
//! computes each output element the same way: `c[i][j] += Σ_p
//! fma(a_ip, b_pj, ·)` with `p` strictly increasing, one IEEE 754
//! `fusedMultiplyAdd` rounding per multiply-add. Vectorizing over output
//! *columns* and tiling over output *rows* never reorders the depth
//! accumulation an element sees, and the AVX-512 kernel's ×2 depth
//! unroll issues the `p` and `p+1` FMAs in order on the same
//! accumulator register — so all tiers and all thread counts are
//! **bit-identical** to the scalar reference. The depth loop is
//! deliberately not split into `KC` slices; cache blocking happens over
//! `M` (the `MC`-row parallel chunks) and `N` (the `nr`-column B
//! panels).
//!
//! [`gemm_naive`] keeps the seed's plain multiply-then-add accumulation
//! and exists as the benchmark baseline; it differs from the production
//! paths by at most one rounding per multiply (FMA is the more accurate
//! of the two).
//!
//! # Parallelism
//!
//! Large products are split over `MC`-row chunks and dispatched on the
//! thread pool in [`crate::pool`]; chunks write disjoint row ranges of
//! `C`, so the split does not affect results. Batched products
//! parallelize over the batch dimension, with the per-batch kernels
//! running serially inside each lane (the pool's nesting rule).

use std::sync::OnceLock;

use crate::pool;

/// Microkernel tile rows of the portable scalar tier.
pub const MR: usize = 8;
/// Microkernel tile columns of the portable scalar tier.
pub const NR: usize = 8;
/// Rows per parallel chunk; the packed `MC × k` A-block of one chunk is
/// sized to stay L2-resident for the depths this workspace uses.
pub const MC: usize = 64;

/// Largest `mr × nr` accumulator any tier needs (AVX-512's 8×32).
const MAX_TILE: usize = 8 * 32;

/// Products smaller than this many flops (`2·m·k·n`) use the naive
/// loop: packing overhead dominates below it.
const BLOCKED_MIN_FLOPS: usize = 1 << 16;
/// Products smaller than this many flops stay on one thread: pool
/// dispatch costs a few microseconds per lane.
const PARALLEL_MIN_FLOPS: usize = 1 << 21;

/// Which microkernel tier the blocked path drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable `f32::mul_add` loop over an [`MR`]×[`NR`] tile.
    Scalar,
    /// AVX2 + FMA 6×16 tile (12 `ymm` accumulators).
    Avx2,
    /// AVX-512F 8×32 tile (16 `zmm` accumulators, depth unrolled ×2).
    Avx512,
}

impl SimdLevel {
    /// Short name, as recorded in bench baselines (`scalar`, `avx2`,
    /// `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// The `(mr, nr)` register-tile shape of this tier.
    pub fn tile(self) -> (usize, usize) {
        match self {
            SimdLevel::Scalar => (MR, NR),
            SimdLevel::Avx2 => (6, 16),
            SimdLevel::Avx512 => (8, 32),
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Best tier the running CPU supports.
fn detect_level() -> SimdLevel {
    if SimdLevel::Avx512.supported() {
        SimdLevel::Avx512
    } else if SimdLevel::Avx2.supported() {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// The microkernel tier production GEMMs run at, resolved once per
/// process: the `PIPEMARE_SIMD` override when set, else the best tier
/// the CPU supports.
///
/// # Panics
///
/// Panics (once, at first kernel use) if `PIPEMARE_SIMD` names a tier
/// the CPU lacks or an unknown value.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let var = std::env::var("PIPEMARE_SIMD").unwrap_or_default();
        let forced = match var.trim().to_ascii_lowercase().as_str() {
            "" | "auto" | "on" => return detect_level(),
            "off" | "scalar" | "0" => SimdLevel::Scalar,
            "avx2" => SimdLevel::Avx2,
            "avx512" => SimdLevel::Avx512,
            other => panic!(
                "PIPEMARE_SIMD={other:?} not recognized \
                 (expected off/scalar/0, avx2, avx512, or auto/on)"
            ),
        };
        assert!(
            forced.supported(),
            "PIPEMARE_SIMD={} forced but this CPU does not support it",
            forced.name()
        );
        forced
    })
}

/// Operand layout of a 2-D product writing `C (m×n) += op(A) · op(B)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `A (m×k) · B (k×n)`.
    NN,
    /// `A (m×k) · B (n×k)ᵀ`.
    NT,
    /// `A (k×m)ᵀ · B (k×n)`.
    TN,
}

/// Baseline kernel: the seed's naive `i‑k‑j` triple loop (plain
/// multiply-then-add, single-threaded, unblocked). Kept public as the
/// before-optimization baseline the `gemm_kernels` bench measures
/// speedups against; production entry points never call it.
pub fn gemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_ip * b_pj;
            }
        }
    }
}

/// `C (m×n) += A (m×k) · B (k×n)`, blocked and parallelized when the
/// product is large enough. `c` is usually preinitialized to zero.
///
/// # Panics
///
/// Panics (in debug builds) on slice-length mismatches.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let timer = crate::telemetry::kernel_timer(crate::telemetry::KernelKind::Gemm, flops(m, k, n));
    gemm_any(Layout::NN, a, b, c, m, k, n);
    crate::telemetry::kernel_record(timer);
}

/// `C (m×n) += A (m×k) · B (n×k)ᵀ` without materializing the transpose.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let timer =
        crate::telemetry::kernel_timer(crate::telemetry::KernelKind::GemmNt, flops(m, k, n));
    gemm_any(Layout::NT, a, b, c, m, k, n);
    crate::telemetry::kernel_record(timer);
}

/// `C (m×n) += A (k×m)ᵀ · B (k×n)` without materializing the transpose.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let timer =
        crate::telemetry::kernel_timer(crate::telemetry::KernelKind::GemmTn, flops(m, k, n));
    gemm_any(Layout::TN, a, b, c, m, k, n);
    crate::telemetry::kernel_record(timer);
}

/// Batched product: `bsize` independent `m×k·k×n` products with the
/// given per-batch layout, parallelized over the batch dimension.
#[allow(clippy::too_many_arguments)]
pub fn gemm_batched(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bsize: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let timer = crate::telemetry::kernel_timer(
        crate::telemetry::KernelKind::Bmm,
        (bsize as u64) * flops(m, k, n),
    );
    let (a_len, b_len, c_len) = (m * k, k * n, m * n);
    let total_flops = bsize.saturating_mul(2 * m * k * n);
    if bsize > 1 && total_flops >= PARALLEL_MIN_FLOPS {
        let c_out = UnsafeSlice::new(c);
        pool::parallel_for(bsize, |bi| {
            // SAFETY: batch `bi` writes only `c[bi*c_len .. (bi+1)*c_len]`,
            // disjoint across chunk indices.
            let c_batch = unsafe { c_out.slice_mut(bi * c_len, c_len) };
            gemm_any(
                layout,
                &a[bi * a_len..(bi + 1) * a_len],
                &b[bi * b_len..(bi + 1) * b_len],
                c_batch,
                m,
                k,
                n,
            );
        });
    } else {
        for bi in 0..bsize {
            gemm_any(
                layout,
                &a[bi * a_len..(bi + 1) * a_len],
                &b[bi * b_len..(bi + 1) * b_len],
                &mut c[bi * c_len..(bi + 1) * c_len],
                m,
                k,
                n,
            );
        }
    }
    crate::telemetry::kernel_record(timer);
}

fn flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Dispatches one 2-D product: scalar loop for small sizes, serial
/// blocked for medium, pool-parallel blocked for large.
fn gemm_any(layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "gemm: A length mismatch");
    debug_assert_eq!(b.len(), k * n, "gemm: B length mismatch");
    debug_assert_eq!(c.len(), m * n, "gemm: C length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return; // C += 0-sized product is a no-op.
    }
    let work = 2 * m * k * n;
    if work < BLOCKED_MIN_FLOPS {
        return match layout {
            Layout::NN => scalar_nn(a, b, c, m, k, n),
            Layout::NT => scalar_nt(a, b, c, m, k, n),
            Layout::TN => scalar_tn(a, b, c, m, k, n),
        };
    }
    let level = simd_level();
    let chunks = m.div_ceil(MC);
    if work >= PARALLEL_MIN_FLOPS && chunks > 1 {
        gemm_blocked_parallel(level, layout, a, b, c, m, k, n);
    } else {
        gemm_blocked_with(level, layout, a, b, c, m, k, n);
    }
}

/// Scalar small-size `A · B`: per-element FMA chain, then one add into
/// C — the per-element semantics every production path shares.
fn scalar_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = 0.0f32;
            for (p, &x) in a_row.iter().enumerate() {
                acc = x.mul_add(b[p * n + j], acc);
            }
            c[i * n + j] += acc;
        }
    }
}

/// Scalar small-size `A · Bᵀ` (both operands stream contiguously).
fn scalar_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc = x.mul_add(y, acc);
            }
            c[i * n + j] += acc;
        }
    }
}

/// Scalar small-size `Aᵀ · B`.
fn scalar_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a[p * m + i].mul_add(b[p * n + j], acc);
            }
            c[i * n + j] += acc;
        }
    }
}

/// Serial blocked GEMM at the process-wide [`simd_level`]. Public so
/// callers outside the dispatcher (benches, matmul fast paths) can run
/// the blocked kernel directly regardless of pool size.
pub fn gemm_blocked(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_blocked_with(simd_level(), layout, a, b, c, m, k, n);
}

/// Serial blocked GEMM at an explicitly forced tier — how benches and
/// parity tests compare tiers side by side in one process.
///
/// # Panics
///
/// Panics if the CPU does not support `level`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_blocked_with(
    level: SimdLevel,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(level.supported(), "SIMD level {} not supported by this CPU", level.name());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (_, nr) = level.tile();
    pool::with_pack_b_scratch(|bpack| {
        let blen = pack_b(layout, b, k, n, nr, bpack);
        let bpack = &bpack[..blen];
        for chunk in 0..m.div_ceil(MC) {
            run_chunk(level, layout, a, bpack, c, m, k, n, chunk);
        }
    });
}

/// Pool-parallel blocked GEMM over `MC`-row chunks.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_parallel(
    level: SimdLevel,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let (_, nr) = level.tile();
    pool::with_pack_b_scratch(|bpack| {
        let blen = pack_b(layout, b, k, n, nr, bpack);
        let bpack: &[f32] = &bpack[..blen];
        let c_out = UnsafeSlice::new(c);
        pool::parallel_for(m.div_ceil(MC), |chunk| {
            // SAFETY: chunk `i` writes only C rows `i*MC .. i*MC+rows`,
            // disjoint across chunk indices.
            let c_all = unsafe { c_out.slice_mut(0, m * n) };
            run_chunk(level, layout, a, bpack, c_all, m, k, n, chunk);
        });
    });
}

/// Packs and multiplies one `MC`-row chunk against the shared packed B.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    level: SimdLevel,
    layout: Layout,
    a: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    chunk: usize,
) {
    let (mr, nr) = level.tile();
    let i0 = chunk * MC;
    let rows = MC.min(m - i0);
    let row_panels = rows.div_ceil(mr);
    let col_panels = n.div_ceil(nr);
    pool::with_pack_a_scratch(|apack| {
        let alen = pack_a(layout, a, i0, rows, m, k, mr, apack);
        let apack = &apack[..alen];
        let mut acc = [0.0f32; MAX_TILE];
        let acc = &mut acc[..mr * nr];
        for jp in 0..col_panels {
            let b_panel = &bpack[jp * k * nr..(jp + 1) * k * nr];
            let j0 = jp * nr;
            let cols = nr.min(n - j0);
            for ip in 0..row_panels {
                let a_panel = &apack[ip * k * mr..(ip + 1) * k * mr];
                match level {
                    SimdLevel::Scalar => micro_scalar(k, a_panel, b_panel, acc),
                    // SAFETY: tier support was asserted at dispatch, and
                    // the panels/acc match the tier's tile shape.
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => unsafe { micro_avx2_6x16(k, a_panel, b_panel, acc) },
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx512 => unsafe { micro_avx512_8x32(k, a_panel, b_panel, acc) },
                    #[cfg(not(target_arch = "x86_64"))]
                    _ => unreachable!("non-scalar SIMD level on a non-x86_64 target"),
                }
                let tile_rows = mr.min(rows - ip * mr);
                for r in 0..tile_rows {
                    let row = i0 + ip * mr + r;
                    let c_row = &mut c[row * n + j0..row * n + j0 + cols];
                    for (c_ij, &v) in c_row.iter_mut().zip(acc[r * nr..r * nr + nr].iter()) {
                        *c_ij += v;
                    }
                }
            }
        }
    });
}

/// The portable register-tile microkernel: a full-depth [`MR`]×[`NR`]
/// product of one packed A panel against one packed B panel.
/// Accumulation per output element runs over `p` in strictly increasing
/// order via FMA — the determinism anchor every SIMD tier reproduces.
#[inline]
fn micro_scalar(k: usize, a_panel: &[f32], b_panel: &[f32], acc_out: &mut [f32]) {
    debug_assert_eq!(a_panel.len(), k * MR);
    debug_assert_eq!(b_panel.len(), k * NR);
    debug_assert_eq!(acc_out.len(), MR * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let av: &[f32; MR] = a_panel[p * MR..p * MR + MR].try_into().expect("MR panel");
        let bv: &[f32; NR] = b_panel[p * NR..p * NR + NR].try_into().expect("NR panel");
        for (acc_row, &a_rp) in acc.iter_mut().zip(av.iter()) {
            for (slot, &b_pc) in acc_row.iter_mut().zip(bv.iter()) {
                *slot = a_rp.mul_add(b_pc, *slot);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        acc_out[r * NR..(r + 1) * NR].copy_from_slice(acc_row);
    }
}

/// AVX2+FMA 6×16 microkernel: 12 `ymm` accumulators (6 rows × two
/// 8-lane halves), one broadcast + two FMAs per row per `p`. Per output
/// element the accumulation is a single FMA chain over increasing `p` —
/// bit-identical to [`micro_scalar`].
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available, `a_panel.len() == 6k`,
/// `b_panel.len() == 16k`, and `acc_out.len() == 96`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_avx2_6x16(k: usize, a_panel: &[f32], b_panel: &[f32], acc_out: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a_panel.len(), k * 6);
    debug_assert_eq!(b_panel.len(), k * 16);
    debug_assert_eq!(acc_out.len(), 6 * 16);
    let a = a_panel.as_ptr();
    let b = b_panel.as_ptr();
    let mut acc: [__m256; 12] = [_mm256_setzero_ps(); 12];
    for p in 0..k {
        let b0 = _mm256_loadu_ps(b.add(p * 16));
        let b1 = _mm256_loadu_ps(b.add(p * 16 + 8));
        for r in 0..6 {
            let av = _mm256_broadcast_ss(&*a.add(p * 6 + r));
            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
        }
    }
    let out = acc_out.as_mut_ptr();
    for r in 0..6 {
        _mm256_storeu_ps(out.add(r * 16), acc[2 * r]);
        _mm256_storeu_ps(out.add(r * 16 + 8), acc[2 * r + 1]);
    }
}

/// AVX-512F 8×32 microkernel: 16 `zmm` accumulators (8 rows × two
/// 16-lane halves), depth unrolled ×2. The unroll issues the `p` FMAs
/// for all rows, then the `p+1` FMAs — each accumulator register still
/// sees its depth products in strictly increasing order, so the result
/// stays bit-identical to [`micro_scalar`]. Saturates the two FMA ports
/// on this repo's CI host (~134 GFLOP/s single-core at 512³).
///
/// # Safety
///
/// Caller must ensure AVX-512F is available, `a_panel.len() == 8k`,
/// `b_panel.len() == 32k`, and `acc_out.len() == 256`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_avx512_8x32(k: usize, a_panel: &[f32], b_panel: &[f32], acc_out: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a_panel.len(), k * 8);
    debug_assert_eq!(b_panel.len(), k * 32);
    debug_assert_eq!(acc_out.len(), 8 * 32);
    let a = a_panel.as_ptr();
    let b = b_panel.as_ptr();
    let mut acc: [__m512; 16] = [_mm512_setzero_ps(); 16];
    let mut p = 0;
    while p + 2 <= k {
        let b0 = _mm512_loadu_ps(b.add(p * 32));
        let b1 = _mm512_loadu_ps(b.add(p * 32 + 16));
        let b2 = _mm512_loadu_ps(b.add(p * 32 + 32));
        let b3 = _mm512_loadu_ps(b.add(p * 32 + 48));
        for r in 0..8 {
            let av = _mm512_set1_ps(*a.add(p * 8 + r));
            acc[2 * r] = _mm512_fmadd_ps(av, b0, acc[2 * r]);
            acc[2 * r + 1] = _mm512_fmadd_ps(av, b1, acc[2 * r + 1]);
        }
        for r in 0..8 {
            let av = _mm512_set1_ps(*a.add((p + 1) * 8 + r));
            acc[2 * r] = _mm512_fmadd_ps(av, b2, acc[2 * r]);
            acc[2 * r + 1] = _mm512_fmadd_ps(av, b3, acc[2 * r + 1]);
        }
        p += 2;
    }
    if p < k {
        let b0 = _mm512_loadu_ps(b.add(p * 32));
        let b1 = _mm512_loadu_ps(b.add(p * 32 + 16));
        for r in 0..8 {
            let av = _mm512_set1_ps(*a.add(p * 8 + r));
            acc[2 * r] = _mm512_fmadd_ps(av, b0, acc[2 * r]);
            acc[2 * r + 1] = _mm512_fmadd_ps(av, b1, acc[2 * r + 1]);
        }
    }
    let out = acc_out.as_mut_ptr();
    for r in 0..8 {
        _mm512_storeu_ps(out.add(r * 32), acc[2 * r]);
        _mm512_storeu_ps(out.add(r * 32 + 16), acc[2 * r + 1]);
    }
}

/// Packs all of B into `nr`-column panels: element `(p, j0+c)` of
/// `op(B)` lands at `bpack[(jp*k + p)*nr + c]`, zero-padded past `n`.
/// Returns the packed length; only that prefix of the (reused,
/// possibly longer) scratch buffer is meaningful, and every element of
/// it is written each call — stale data never leaks into the product.
fn pack_b(layout: Layout, b: &[f32], k: usize, n: usize, nr: usize, bpack: &mut Vec<f32>) -> usize {
    let col_panels = n.div_ceil(nr);
    let len = col_panels * k * nr;
    if bpack.len() < len {
        bpack.resize(len, 0.0);
    }
    for jp in 0..col_panels {
        let j0 = jp * nr;
        let cols = nr.min(n - j0);
        let panel = &mut bpack[jp * k * nr..(jp + 1) * k * nr];
        match layout {
            // B is k×n row-major: copy `cols` contiguous values per p,
            // zeroing only the pad lanes of a ragged final panel.
            Layout::NN | Layout::TN => {
                for p in 0..k {
                    panel[p * nr..p * nr + cols].copy_from_slice(&b[p * n + j0..p * n + j0 + cols]);
                    panel[p * nr + cols..(p + 1) * nr].fill(0.0);
                }
            }
            // B is n×k row-major (the operand of `A · Bᵀ`): column j of
            // op(B) is row j of B. A ragged final panel is cleared first
            // because its writes are strided.
            Layout::NT => {
                if cols < nr {
                    panel.fill(0.0);
                }
                interleave_rows(&b[j0 * k..(j0 + cols) * k], k, nr, panel);
            }
        }
    }
    len
}

/// Depth positions interleaved per pass of [`interleave_rows`]: a
/// `PACK_DEPTH × 32` destination block is 16 KiB and stays in L1 while
/// the source rows make their passes over it.
const PACK_DEPTH: usize = 128;

/// The transposing pack both operands share: row `i` of `src` (rows of
/// `k` contiguous values) lands at `panel[p * width + i]`. Reads stream
/// along the rows and writes are strided, so the depth is cut into
/// [`PACK_DEPTH`] blocks — at a conv weight gradient's depth of thousands
/// an unblocked pass per row sweeps the whole panel through L2 once per
/// row (1.8 ns per element against 0.25) — and rows go eight at a time,
/// so each depth position receives eight adjacent values at once.
fn interleave_rows(src: &[f32], k: usize, width: usize, panel: &mut [f32]) {
    const LANES: usize = 8;
    let rows = src.len() / k;
    for p0 in (0..k).step_by(PACK_DEPTH) {
        let depth = PACK_DEPTH.min(k - p0);
        let block = &mut panel[p0 * width..(p0 + depth) * width];
        let mut i = 0;
        while i + LANES <= rows {
            let lanes: [&[f32]; LANES] =
                std::array::from_fn(|j| &src[(i + j) * k + p0..(i + j) * k + p0 + depth]);
            for (p, out) in block.chunks_exact_mut(width).enumerate() {
                for (slot, lane) in out[i..i + LANES].iter_mut().zip(&lanes) {
                    *slot = lane[p];
                }
            }
            i += LANES;
        }
        for (i, row) in src.chunks_exact(k).enumerate().skip(i) {
            for (out, &v) in block.chunks_exact_mut(width).zip(&row[p0..p0 + depth]) {
                out[i] = v;
            }
        }
    }
}

/// Packs `rows` rows of `op(A)` starting at `i0` into `mr`-row panels:
/// element `(i0+r', p)` of `op(A)` lands at `apack[(ip*k + p)*mr + r]`,
/// zero-padded past `rows`. Returns the packed length (see [`pack_b`]
/// for the scratch-reuse contract).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    layout: Layout,
    a: &[f32],
    i0: usize,
    rows: usize,
    m: usize,
    k: usize,
    mr: usize,
    apack: &mut Vec<f32>,
) -> usize {
    let row_panels = rows.div_ceil(mr);
    let len = row_panels * k * mr;
    if apack.len() < len {
        apack.resize(len, 0.0);
    }
    for ip in 0..row_panels {
        let r0 = i0 + ip * mr;
        let tile_rows = mr.min(rows - ip * mr);
        let panel = &mut apack[ip * k * mr..(ip + 1) * k * mr];
        // A ragged final panel is cleared up front (its pad rows
        // interleave with every p); full panels overwrite every slot.
        if tile_rows < mr {
            panel.fill(0.0);
        }
        match layout {
            // A is m×k row-major.
            Layout::NN | Layout::NT => {
                interleave_rows(&a[r0 * k..(r0 + tile_rows) * k], k, mr, panel);
            }
            // A is k×m row-major (the operand of `Aᵀ · B`): row i of
            // op(A) is column i of A, so each p contributes a contiguous
            // run of `tile_rows` values.
            Layout::TN => {
                for p in 0..k {
                    panel[p * mr..p * mr + tile_rows]
                        .copy_from_slice(&a[p * m + r0..p * m + r0 + tile_rows]);
                }
            }
        }
    }
    len
}

/// Shared mutable slice for provably disjoint parallel writes.
pub(crate) struct UnsafeSlice {
    ptr: *mut f32,
    len: usize,
}

unsafe impl Sync for UnsafeSlice {}
unsafe impl Send for UnsafeSlice {}

impl UnsafeSlice {
    pub(crate) fn new(slice: &mut [f32]) -> Self {
        UnsafeSlice { ptr: slice.as_mut_ptr(), len: slice.len() }
    }

    /// # Safety
    ///
    /// Callers must guarantee that concurrently obtained ranges never
    /// overlap in the elements they *write*.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [f32] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn randvec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Per-element scalar reference: an FMA chain over p in increasing
    /// order — the exact semantics every production kernel in this
    /// module must reproduce bit-for-bit.
    fn reference(layout: Layout, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let (x, y) = match layout {
                        Layout::NN => (a[i * k + p], b[p * n + j]),
                        Layout::NT => (a[i * k + p], b[j * k + p]),
                        Layout::TN => (a[p * m + i], b[p * n + j]),
                    };
                    acc = x.mul_add(y, acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Every CPU-supported tier, scalar first.
    fn available_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|l| l.supported())
            .collect()
    }

    #[test]
    fn blocked_is_bit_identical_to_reference_all_layouts_all_tiers() {
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            for &(m, k, n) in &[(1, 1, 1), (7, 9, 5), (8, 8, 8), (65, 33, 17), (70, 64, 72)] {
                let a = randvec(m * k, 1);
                let b = randvec(k * n, 2);
                let want = reference(layout, &a, &b, m, k, n);
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                for level in available_levels() {
                    let mut got = vec![0.0f32; m * n];
                    gemm_blocked_with(level, layout, &a, &b, &mut got, m, k, n);
                    let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got_bits,
                        want_bits,
                        "blocked {} {layout:?} {m}x{k}x{n}",
                        level.name()
                    );
                }
                // The dispatching entry point (which may pick the scalar
                // path for these sizes) must agree bit-for-bit too.
                let mut via_dispatch = vec![0.0f32; m * n];
                gemm_any(layout, &a, &b, &mut via_dispatch, m, k, n);
                let dispatch_bits: Vec<u32> = via_dispatch.iter().map(|v| v.to_bits()).collect();
                assert_eq!(dispatch_bits, want_bits, "dispatch {layout:?} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_shrinking_calls() {
        // A big product followed by a smaller ragged one reuses the same
        // (now longer) pack scratch; the pad lanes must still read zero.
        for level in available_levels() {
            let (m1, k1, n1) = (70, 64, 72);
            let a1 = randvec(m1 * k1, 31);
            let b1 = randvec(k1 * n1, 32);
            let mut c1 = vec![0.0f32; m1 * n1];
            gemm_blocked_with(level, Layout::NN, &a1, &b1, &mut c1, m1, k1, n1);
            for layout in [Layout::NN, Layout::NT, Layout::TN] {
                let (m, k, n) = (13, 9, 11);
                let a = randvec(m * k, 33);
                let b = randvec(k * n, 34);
                let want = reference(layout, &a, &b, m, k, n);
                let mut got = vec![0.0f32; m * n];
                gemm_blocked_with(level, layout, &a, &b, &mut got, m, k, n);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "stale scratch leaked into {} {layout:?}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn forcing_an_unsupported_level_panics() {
        #[cfg(not(target_arch = "x86_64"))]
        {
            let r = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f32; 4];
                gemm_blocked_with(
                    SimdLevel::Avx2,
                    Layout::NN,
                    &[1.0; 4],
                    &[1.0; 4],
                    &mut c,
                    2,
                    2,
                    2,
                );
            });
            assert!(r.is_err());
        }
    }

    #[test]
    fn simd_level_reports_a_supported_tier() {
        assert!(simd_level().supported());
    }

    #[test]
    fn empty_dims_are_no_ops() {
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let mut c = vec![1.0f32; 0];
            gemm_any(layout, &[], &[], &mut c, 0, 3, 0);
            let mut c = vec![0.5f32; 6];
            gemm_any(layout, &[], &[], &mut c, 2, 0, 3);
            assert_eq!(c, vec![0.5; 6], "k=0 must leave C untouched");
        }
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernel's `if a_ip == 0.0 { continue }` skip made
        // 0·NaN silently vanish; IEEE says it is NaN.
        let a = [0.0f32, 0.0];
        let b = [f32::NAN, 1.0, 2.0, 3.0];
        let mut c = [0.0f32; 2];
        gemm_naive(&a, &b, &mut c, 1, 2, 2);
        assert!(c[0].is_nan(), "0 * NaN must be NaN, got {}", c[0]);
        let mut c = [0.0f32; 2];
        gemm(&a, &b, &mut c, 1, 2, 2);
        assert!(c[0].is_nan(), "production path: 0 * NaN must be NaN, got {}", c[0]);
    }
}
