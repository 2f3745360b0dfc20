//! GEMM kernels: a no-pack kernel for small products, a cache-blocked,
//! register-tiled kernel with runtime SIMD dispatch for the rest, and
//! optional pool-parallel execution of the latter.
//!
//! # Dispatch
//!
//! Every product `C (m×n) += op(A) · op(B)` — dense or over column blocks
//! of wider matrices ([`Product`]'s leading dimensions), alone or as one
//! of a batch ([`gemm_batched`]) — takes one of three paths:
//!
//! | path | when | what it costs beyond the FMAs |
//! |---|---|---|
//! | **no-pack** ([`gemm_no_pack`]) | [`no_pack_is_faster`]: `m ≤ 4` at any `k·n` (not `A · Bᵀ`), `k·n ≤ 256`, or `m < 16` and `k·n ≤ 8192` — unless the pool splits it | nothing: A and B are read where they lie (`A · Bᵀ` first transposes B into the pack scratch, a [`B_BLOCK`] of columns at a time) |
//! | **blocked** ([`gemm_blocked`]) | otherwise | packs B a [`B_BLOCK`] at a time (`k·n` writes in all) and A per `MC`-row chunk per block (`m·k` writes a block; once in all for `m ≤ MC`) |
//! | **pool-parallel blocked** | `2·m·k·n ≥ 2²¹` and more than one `MC`-row chunk | the same packs, each block's chunks spread over the pool |
//!
//! The no-pack kernel is portable code the compiler vectorises over
//! output columns. Its tile is `R ∈ {1, 2, 4}` rows by `128 / R`
//! columns, sixteen `ymm` FMA chains at `target-cpu=native` whatever the
//! rows, so a product of up to four rows is one row block and reads each
//! element of B once, where it lies. The blocked kernel's AVX-512 tier
//! is twice as wide, so it wins as soon as its packs are amortised. Where
//! that happens was measured, not guessed: `cargo bench -p pipemare-bench
//! --bench gemm_kernels` times both kernels on a grid of small shapes and
//! of short products over large B, and records no-pack ÷ blocked as
//! `metric.small_gemm.sweep.<layout>.<m>x<k>x<n>` in
//! `BENCH_gemm_kernels.json` (the side taken as the gated
//! `small_gemm.side.*`). On the recording host (2 vCPU Sapphire Rapids)
//! the ratio is 0.2–0.8 for every `m` up to 96 while `k·n ≤ 256`. For
//! `k·n` from 512 to 8192, `A · B` crosses 1 between `m = 12` and
//! `m = 18` (12×32×32 0.76, 16×32×32 1.04, 18×32×32 0.90, 12×32×64
//! 0.85, 18×32×64 1.03) and reads 1.1–1.8 from `m = 32` on; `A · Bᵀ`
//! already reads 1.03–1.4 from `m = 6`, and `Aᵀ · B` stays below 1 up to
//! `m = 32` (18×32×32 0.55). Over large B (`k·n` from 16 384 to
//! 655 360) the blocked side packs all of B for a few rows: `A · B` and
//! `Aᵀ · B` read 0.1–0.7 up to four rows (1×512×512 0.28 and 0.15,
//! 4×640×1024 0.60 and 0.49), and `A · B` crosses 1 between `m = 4` and
//! `m = 6` from `k·n = 32 768` up (6×512×512 1.06, 6×640×1024 1.12;
//! 16×640×1024, widemlp's microbatch, 1.51) but only near `m = 15` at
//! 128×128 (8×128×128 0.82, 15×128×128 1.21). Above `k·n = 8192`
//! `A · Bᵀ` loses at any `m` to its transpose (1×512×512 1.40,
//! 1×640×1024 1.59).
//!
//! All three paths compute each element by the same chain (below), so
//! which one a product takes never shows in a result. A convolution is
//! none of the three: [`crate::conv`] builds its panels itself and never
//! materialises the product's B operand.
//!
//! # The blocked algorithm
//!
//! The blocked path packs both operands into contiguous micro-panels and
//! drives an `mr × nr` register-tile microkernel:
//!
//! * **B** is packed one column block at a time into column panels of
//!   `nr` columns, zero-padded to a multiple of `nr` (layout
//!   `[panel][p][c]`, so the microkernel streams it contiguously). A
//!   block is as many whole panels as fit in [`B_BLOCK`] values (256 KiB)
//!   and at least one, so the calling thread's B scratch never outgrows
//!   that plus one panel: a wide layer's `k·n` weight matrix is never
//!   copied whole.
//! * **A** is packed per row-block of [`MC`] rows into the packing
//!   thread's scratch buffer (owned by [`crate::pool`], allocated once
//!   per worker thread), as row panels of `mr` rows (layout
//!   `[panel][p][r]`). Every chunk runs against a block before the next
//!   block is packed, so A is packed once per block — once in all when
//!   the product is a single chunk.
//! * The microkernel accumulates a full-depth `mr × nr` tile in
//!   registers: `acc[r][c] += a[p][r] · b[p][c]` for `p = 0, 1, …, k−1`.
//!   The tile can go in as well as out (`micro_tile`'s `carry`): the
//!   GEMM starts every tile at zero, a caller that streams its depth in
//!   blocks carries the tile from one block to the next.
//!
//! The convolution passes in [`crate::conv`] run the same microkernels
//! through `micro_tile` over the same `mr × nr` tiles; they differ from
//! the GEMM only in where a panel comes from (runs of a zero-bordered
//! copy of the image instead of a packed matrix) and where a tile goes
//! (NCHW `y`, carried weight-gradient tiles, a folded input gradient).
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
//! it), and `auto`/`on`/empty (detect, the default). The no-pack kernel
//! has no tiers: it is the same code at every setting.
//!
//! # Numerics and determinism
//!
//! Every production path — the no-pack kernel, the blocked kernel at
//! **any** SIMD tier, and the pool-parallel blocked kernel — computes
//! each output element the same way: `c[i][j] += Σ_p fma(a_ip, b_pj, ·)`
//! with `p` strictly increasing from a zero accumulator, one IEEE 754
//! `fusedMultiplyAdd` rounding per multiply-add, then one add into C.
//! Vectorizing over output *columns* and tiling over output *rows* never
//! reorders the depth accumulation an element sees, the no-pack kernel's
//! ragged last tile is a whole tile shifted back to the edge (never a
//! chain cut in two), and the AVX-512 kernel's ×2 depth unroll issues
//! the `p` and `p+1` FMAs in order on the same accumulator register — so
//! all paths, all tiers and all thread counts are **bit-identical** to
//! the scalar reference. The depth loop is deliberately not split into
//! `KC` slices; cache blocking happens over `M` (the `MC`-row parallel
//! chunks) and `N` (the [`B_BLOCK`] column blocks and their `nr`-column
//! panels), and each tile still runs its full depth from a zero
//! accumulator, so how B is cut into blocks never shows in a result.
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
//! parallelize over the batch dimension when their C blocks are provably
//! disjoint, with the per-batch kernels running serially inside each
//! lane (the pool's nesting rule).

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
pub(crate) const MAX_TILE: usize = 8 * 32;

/// Products smaller than this many flops stay on one thread: pool
/// dispatch costs a few microseconds per lane.
pub(crate) const PARALLEL_MIN_FLOPS: usize = 1 << 21;

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

/// Geometry of one product `C (m×n) += op(A) · op(B)` whose operands may
/// be column blocks of wider row-major matrices: `lda`, `ldb` and `ldc`
/// are the row pitches, in elements, of A, B and C *as stored* — A is
/// stored `m×k` for NN/NT and `k×m` for TN, B `k×n` for NN/TN and `n×k`
/// for NT, C always `m×n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Product {
    /// Which operands are read transposed.
    pub layout: Layout,
    /// Rows of `op(A)` and of C.
    pub m: usize,
    /// Depth: columns of `op(A)`, rows of `op(B)`.
    pub k: usize,
    /// Columns of `op(B)` and of C.
    pub n: usize,
    /// Row pitch of A as stored.
    pub lda: usize,
    /// Row pitch of B as stored.
    pub ldb: usize,
    /// Row pitch of C.
    pub ldc: usize,
}

impl Product {
    /// A product over tightly stored operands (each row pitch equals the
    /// stored row length).
    pub fn dense(layout: Layout, m: usize, k: usize, n: usize) -> Self {
        let (lda, ldb) = match layout {
            Layout::NN => (k, n),
            Layout::NT => (k, k),
            Layout::TN => (m, n),
        };
        Product { layout, m, k, n, lda, ldb, ldc: n }
    }

    /// `2·m·k·n`, the count every instrument and threshold uses.
    fn flops(&self) -> usize {
        2 * self.m * self.k * self.n
    }

    /// Elements from the first to one past the last of each operand as
    /// stored: `[A, B, C]`.
    fn spans(&self) -> [usize; 3] {
        let span = |rows: usize, cols: usize, ld: usize| (rows - 1) * ld + cols;
        let (a, b) = match self.layout {
            Layout::NN => (span(self.m, self.k, self.lda), span(self.k, self.n, self.ldb)),
            Layout::NT => (span(self.m, self.k, self.lda), span(self.n, self.k, self.ldb)),
            Layout::TN => (span(self.k, self.m, self.lda), span(self.k, self.n, self.ldb)),
        };
        [a, b, span(self.m, self.n, self.ldc)]
    }
}

/// Where the matrices of one batched operand start inside its slice:
/// matrix `(g, h)` begins `g · group + h · head` elements in. A
/// contiguous 3-D tensor is `{ group: rows · cols, head: 0 }` with one
/// head per group; head `h` of batch element `g` of a `(G·t, H·dh)`
/// row-major matrix is `{ group: t · H · dh, head: dh }` with row pitch
/// `H · dh`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStride {
    /// Elements between consecutive groups.
    pub group: usize,
    /// Elements between consecutive heads of one group.
    pub head: usize,
}

impl BatchStride {
    fn offset(&self, g: usize, h: usize) -> usize {
        g * self.group + h * self.head
    }

    /// Whether the `groups × heads` C blocks of `p` can never share an
    /// element: heads side by side inside one row pitch, or one whole
    /// block after the other — the two placements this workspace uses.
    /// Anything else runs serially, where an overlap is merely `+=` twice.
    fn c_blocks_disjoint(&self, p: &Product, heads: usize) -> bool {
        let block = (p.m - 1) * p.ldc + p.n;
        let side_by_side = self.head >= p.n && (heads - 1) * self.head + p.n <= p.ldc;
        let stacked = self.head >= block;
        let heads_span = (heads - 1) * self.head + block;
        p.n <= p.ldc && (heads == 1 || side_by_side || stacked) && self.group >= heads_span
    }
}

/// `C (m×n) += A (m×k) · B (k×n)`, blocked and parallelized when the
/// product is large enough. `c` is usually preinitialized to zero.
///
/// # Panics
///
/// Panics (in debug builds) on slice-length mismatches.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_dense(crate::telemetry::KernelKind::Gemm, Layout::NN, a, b, c, m, k, n);
}

/// `C (m×n) += A (m×k) · B (n×k)ᵀ` without materializing the transpose.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_dense(crate::telemetry::KernelKind::GemmNt, Layout::NT, a, b, c, m, k, n);
}

/// `C (m×n) += A (k×m)ᵀ · B (k×n)` without materializing the transpose.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_dense(crate::telemetry::KernelKind::GemmTn, Layout::TN, a, b, c, m, k, n);
}

#[allow(clippy::too_many_arguments)]
fn gemm_dense(
    kind: crate::telemetry::KernelKind,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k, "gemm: A length mismatch");
    debug_assert_eq!(b.len(), k * n, "gemm: B length mismatch");
    debug_assert_eq!(c.len(), m * n, "gemm: C length mismatch");
    let p = Product::dense(layout, m, k, n);
    let timer = crate::telemetry::kernel_timer(kind, p.flops() as u64);
    gemm_any(&p, a, b, c);
    crate::telemetry::kernel_record(timer);
}

/// Batched product: `groups × heads` independent products of geometry
/// `p`, matrix `(g, h)` of each operand placed by its [`BatchStride`] —
/// so the heads of an attention layer, which are column blocks of its
/// `(B·T, D)` projections, multiply where they lie. One call, recorded
/// as one [`KernelKind::Bmm`](crate::KernelKind::Bmm) of
/// `groups · heads · 2·m·k·n` flops; large batches are parallelized over
/// the batch dimension.
///
/// # Panics
///
/// Panics if a slice does not cover its last matrix.
#[allow(clippy::too_many_arguments)]
pub fn gemm_batched(
    p: &Product,
    groups: usize,
    heads: usize,
    a: &[f32],
    a_at: BatchStride,
    b: &[f32],
    b_at: BatchStride,
    c: &mut [f32],
    c_at: BatchStride,
) {
    let bsize = groups * heads;
    let timer = crate::telemetry::kernel_timer(
        crate::telemetry::KernelKind::Bmm,
        (bsize * p.flops()) as u64,
    );
    if bsize > 0 && p.flops() > 0 {
        let [a_span, b_span, c_span] = p.spans();
        let last = |at: BatchStride| at.offset(groups - 1, heads - 1);
        assert!(last(a_at) + a_span <= a.len(), "gemm_batched: A does not cover its last matrix");
        assert!(last(b_at) + b_span <= b.len(), "gemm_batched: B does not cover its last matrix");
        assert!(last(c_at) + c_span <= c.len(), "gemm_batched: C does not cover its last matrix");
        let parallel = bsize > 1
            && bsize.saturating_mul(p.flops()) >= PARALLEL_MIN_FLOPS
            && c_at.c_blocks_disjoint(p, heads);
        if parallel {
            let c_out = UnsafeSlice::new(c);
            pool::parallel_for(bsize, |bi| {
                let (g, h) = (bi / heads, bi % heads);
                // SAFETY: the spans were checked against the slice above,
                // and `c_blocks_disjoint` showed that no two `(g, h)`
                // blocks write the same element.
                let c_block = unsafe { c_out.slice_mut(c_at.offset(g, h), c_span) };
                gemm_any(p, &a[a_at.offset(g, h)..], &b[b_at.offset(g, h)..], c_block);
            });
        } else {
            for g in 0..groups {
                for h in 0..heads {
                    let c_block = &mut c[c_at.offset(g, h)..];
                    gemm_any(p, &a[a_at.offset(g, h)..], &b[b_at.offset(g, h)..], c_block);
                }
            }
        }
    }
    crate::telemetry::kernel_record(timer);
}

/// Whether a product runs on the no-pack kernel (true) or a packing
/// blocked kernel (false) — the dispatch line, one predicate on the
/// layout and extents. What decides is not the flop count: packing B
/// costs `k·n` writes that only `m` rows amortise, so a *short* product
/// never earns its pack, and a product over a *tiny* B is all fixed cost
/// on the blocked side however tall it is. Up to four rows the no-pack
/// tile holds the whole product and reads each element of B once, at any
/// `k·n`; beyond one tile it re-reads B once per row block, which pays
/// only while B sits in L1. `A · Bᵀ` has no such short rule: its no-pack
/// path transposes B first, a copy that costs what the pack does. A
/// product the pool can split over `MC`-row chunks is always blocked.
/// The constants were read from the cross-over sweep that `gemm_kernels`
/// records as `metric.small_gemm.sweep.*` (module docs, "Dispatch").
pub fn no_pack_is_faster(layout: Layout, m: usize, k: usize, n: usize) -> bool {
    let b_len = k * n;
    let short = m <= NO_PACK_SHORT_ROWS && layout != Layout::NT;
    !runs_parallel(m, k, n)
        && (short
            || b_len <= NO_PACK_ANY_ROWS_MAX_B
            || (m < NO_PACK_MAX_ROWS && b_len <= NO_PACK_MAX_B))
}

/// Products of at most this many rows (one no-pack tile) never earn a
/// pack of B, however large it is …
const NO_PACK_SHORT_ROWS: usize = 4;
/// … nor does a B this small (16×16), at any height …
const NO_PACK_ANY_ROWS_MAX_B: usize = 256;
/// … while fewer rows than this do not amortise it …
const NO_PACK_MAX_ROWS: usize = 16;
/// … as long as B (32 KiB here) still sits in L1 between row blocks.
const NO_PACK_MAX_B: usize = 8192;

/// Whether the blocked path spreads a product over the pool: enough
/// flops to pay for the dispatch, and more than one `MC`-row chunk.
fn runs_parallel(m: usize, k: usize, n: usize) -> bool {
    2 * m * k * n >= PARALLEL_MIN_FLOPS && m > MC
}

/// Dispatches one 2-D product: no-pack for small sizes, serial blocked
/// for medium, pool-parallel blocked for large.
fn gemm_any(p: &Product, a: &[f32], b: &[f32], c: &mut [f32]) {
    if p.m == 0 || p.n == 0 || p.k == 0 {
        return; // C += 0-sized product is a no-op.
    }
    if no_pack_is_faster(p.layout, p.m, p.k, p.n) {
        return gemm_no_pack(p, a, b, c);
    }
    let level = simd_level();
    if runs_parallel(p.m, p.k, p.n) {
        blocked_parallel(level, p, a, b, c);
    } else {
        blocked(level, p, a, b, c);
    }
}

/// Accumulators of one no-pack tile, `R · L`: sixteen vector FMA chains
/// at `target-cpu=native` whatever the rows, so even a one-row tile
/// issues enough independent FMAs to cover their latency.
const NO_PACK_ACC: usize = 128;

/// The no-pack kernel, callable directly (benches and parity tests
/// compare it with [`gemm_blocked`] on both sides of the dispatch line).
///
/// It reads A and B where they lie. The tile is `R ∈ {1, 2, 4}` rows by
/// `L` output *columns* (`L` a power of two up to `128 / R`), held in
/// `[f32; L]` accumulators that the compiler keeps in vector registers;
/// per element it runs the one chain every tier shares —
/// `acc = fma(a_ip, b_pj, acc)` for `p = 0, 1, …`, then `c += acc`. A
/// ragged last tile is the previous tile shifted back to end at the
/// edge, committing only the rows and lanes not yet written, so no
/// element is ever accumulated in two pieces. `A · Bᵀ` first transposes
/// B into this thread's pack scratch, one column block of at most
/// [`B_BLOCK`] values (or one tile's lanes) at a time.
///
/// # Panics
///
/// Panics if a slice does not cover its operand.
pub fn gemm_no_pack(p: &Product, a: &[f32], b: &[f32], c: &mut [f32]) {
    if p.m == 0 || p.n == 0 || p.k == 0 {
        return;
    }
    // The whole product up to four rows, so such a product reads each
    // element of B once. Three rows run as a four-row tile whose last row
    // repeats the third and is never committed — except `Aᵀ · B`, whose
    // tile reads its `R` values of a depth step as one run of A and so
    // needs `R ≤ m`.
    match (p.m, p.layout) {
        (1, _) => no_pack_rows_of::<1>(p, a, b, c),
        (2, _) | (3, Layout::TN) => no_pack_rows_of::<2>(p, a, b, c),
        _ => no_pack_rows_of::<4>(p, a, b, c),
    }
}

/// [`gemm_no_pack`] at `R` rows: picks the lanes and, for `A · Bᵀ`,
/// stages the transposed B.
fn no_pack_rows_of<const R: usize>(p: &Product, a: &[f32], b: &[f32], c: &mut [f32]) {
    let max_lanes = NO_PACK_ACC / R;
    if p.layout != Layout::NT {
        let lanes = (1 << p.n.ilog2()).min(max_lanes);
        return no_pack_lanes::<R>(p, lanes, a, b, p.ldb, p.n, c);
    }
    // Bᵀ goes to the scratch one column block at a time, at a pitch of
    // whole vectors, zero beyond the block's last column, so a narrow
    // product is one block of the next lane count up instead of two of
    // the next one down.
    let lanes = p.n.next_power_of_two().min(max_lanes);
    pool::with_pack_b_scratch(|bt| {
        for (j0, cols) in col_blocks(p.n, p.k, lanes) {
            let width = cols.next_multiple_of(lanes);
            let bt = b_scratch(bt, p.k * width);
            if width > cols {
                bt.fill(0.0);
            }
            interleave_rows(&b[j0 * p.ldb..], p.ldb, cols, p.k, width, bt);
            let block = Product { n: cols, ..*p };
            no_pack_lanes::<R>(&block, lanes, a, bt, width, width, &mut c[j0..]);
        }
    });
}

/// Instantiates the tile walk for `R` rows and `lanes` columns; `b` is
/// `k×n` row-major at pitch `ldb` whatever the layout was, and the first
/// `b_cols ≥ n` values of each of its rows may be read.
fn no_pack_lanes<const R: usize>(
    p: &Product,
    lanes: usize,
    a: &[f32],
    b: &[f32],
    ldb: usize,
    b_cols: usize,
    c: &mut [f32],
) {
    match lanes {
        128 => no_pack_tiles::<R, 128>(p, a, b, ldb, b_cols, c),
        64 => no_pack_tiles::<R, 64>(p, a, b, ldb, b_cols, c),
        32 => no_pack_tiles::<R, 32>(p, a, b, ldb, b_cols, c),
        16 => no_pack_tiles::<R, 16>(p, a, b, ldb, b_cols, c),
        8 => no_pack_tiles::<R, 8>(p, a, b, ldb, b_cols, c),
        4 => no_pack_tiles::<R, 4>(p, a, b, ldb, b_cols, c),
        2 => no_pack_tiles::<R, 2>(p, a, b, ldb, b_cols, c),
        _ => no_pack_tiles::<R, 1>(p, a, b, ldb, b_cols, c),
    }
}

/// Walks the `R × L` tiles of C, column blocks outermost so a `k × L`
/// strip of B is read from where it lies once per row block. A ragged
/// last block is the previous one shifted back to end at the edge,
/// committing only what is not yet written — or, where B's rows are
/// padded to whole vectors (`b_cols` reaches past `n`), a block in place
/// whose surplus lanes are dropped. A product shorter than the tile
/// repeats its last row in the surplus rows and commits only its own.
fn no_pack_tiles<const R: usize, const L: usize>(
    p: &Product,
    a: &[f32],
    b: &[f32],
    ldb: usize,
    b_cols: usize,
    c: &mut [f32],
) {
    let (m, k, n) = (p.m, p.k, p.n);
    for j0 in (0..n).step_by(L) {
        let (j, lanes) = if j0 + L <= n {
            (j0, 0..L)
        } else if j0 + L <= b_cols {
            (j0, 0..n - j0)
        } else {
            (n - L, j0 + L - n..L)
        };
        let b_strip = &b[j..];
        for i0 in (0..m).step_by(R) {
            let i = i0.min(m.saturating_sub(R));
            let row0 = i0 - i;
            let acc: [[f32; L]; R] = if p.layout == Layout::TN {
                no_pack_tile_tn(k, &a[i..], p.lda, b_strip, ldb)
            } else {
                let rows = std::array::from_fn(|r| {
                    let at = (i + r).min(m - 1) * p.lda;
                    &a[at..at + k]
                });
                no_pack_tile(rows, b_strip, ldb)
            };
            for (r, acc_row) in acc.iter().enumerate().take(m - i).skip(row0) {
                let at = (i + r) * p.ldc + j;
                let c_row = &mut c[at + lanes.start..at + lanes.end];
                for (c_ij, &v) in c_row.iter_mut().zip(&acc_row[lanes.clone()]) {
                    *c_ij += v;
                }
            }
        }
    }
}

/// One full-depth `R × L` tile over `R` rows of a row-major A:
/// `acc[r][l] = Σ_p fma(a[r][p], b[p][l], ·)` with `p` ascending — the
/// chain of [`micro_scalar`], on unpacked operands. Plain counted loops
/// over fixed-size arrays, indexed rather than iterated: this is the
/// shape the compiler keeps in vector registers from the first depth
/// step to the last (iterator adaptors with a second exit spill `acc`
/// every step). Never inlined, for the same reason: merged into the
/// walk, `acc` becomes the array the commit loop indexes and goes back
/// to memory.
#[inline(never)]
fn no_pack_tile<const R: usize, const L: usize>(
    rows: [&[f32]; R],
    b_strip: &[f32],
    ldb: usize,
) -> [[f32; L]; R] {
    let k = rows[0].len();
    for row in &rows {
        assert_eq!(row.len(), k);
    }
    let mut acc = [[0.0f32; L]; R];
    for q in 0..k {
        let bv: &[f32; L] = b_strip[q * ldb..q * ldb + L].try_into().expect("L values of B");
        for r in 0..R {
            let x = rows[r][q];
            for l in 0..L {
                acc[r][l] = x.mul_add(bv[l], acc[r][l]);
            }
        }
    }
    acc
}

/// The same tile over `Aᵀ`: A is stored `k×m`, so the tile's `R` values
/// of a depth step are adjacent (`a` starts at the tile's first row).
#[inline(never)]
fn no_pack_tile_tn<const R: usize, const L: usize>(
    k: usize,
    a: &[f32],
    lda: usize,
    b_strip: &[f32],
    ldb: usize,
) -> [[f32; L]; R] {
    let mut acc = [[0.0f32; L]; R];
    for q in 0..k {
        let av: &[f32; R] = a[q * lda..q * lda + R].try_into().expect("R values of A");
        let bv: &[f32; L] = b_strip[q * ldb..q * ldb + L].try_into().expect("L values of B");
        for r in 0..R {
            for l in 0..L {
                acc[r][l] = av[r].mul_add(bv[l], acc[r][l]);
            }
        }
    }
    acc
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
    blocked(level, &Product::dense(layout, m, k, n), a, b, c);
}

/// Most values one packed block of B holds (256 KiB of `f32`): the
/// blocked paths pack B a block of whole `nr`-column panels at a time,
/// as many as fit, but always at least one. A thread's B scratch is
/// therefore at most this plus one panel, whatever the product.
pub const B_BLOCK: usize = 1 << 16;

/// The first `len` values of this thread's B scratch, grown if need be —
/// to exactly `len`: a doubling would let the thread keep up to twice the
/// largest block it ever packed.
fn b_scratch(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// The column blocks `(first column, columns)` of an `n`-column B of
/// depth `k` packed `width` columns to a panel: whole panels up to
/// [`B_BLOCK`] values, at least one panel each, the last one ragged.
fn col_blocks(n: usize, k: usize, width: usize) -> impl Iterator<Item = (usize, usize)> {
    let step = (B_BLOCK / (k * width)).max(1) * width;
    (0..n).step_by(step).map(move |j0| (j0, step.min(n - j0)))
}

/// Serial blocked GEMM: one block of B at a time, every `MC`-row chunk
/// against it before the next is packed. A product of one chunk packs
/// its A once, for every block.
fn blocked(level: SimdLevel, p: &Product, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (mr, nr) = level.tile();
    let chunks = p.m.div_ceil(MC);
    pool::with_pack_a_scratch(|apack| {
        pool::with_pack_b_scratch(|bpack| {
            for (block, (j0, cols)) in col_blocks(p.n, p.k, nr).enumerate() {
                let bpack = pack_b(p, b, j0, cols, nr, bpack);
                for chunk in 0..chunks {
                    let (i0, rows) = (chunk * MC, MC.min(p.m - chunk * MC));
                    if chunks > 1 || block == 0 {
                        pack_a(p, a, i0, rows, mr, apack);
                    }
                    multiply(level, p, apack, bpack, c, (i0, rows), (j0, cols));
                }
            }
        });
    });
}

/// Pool-parallel blocked GEMM: one block of B at a time, packed by the
/// calling thread and shared by the `MC`-row chunks the pool spreads.
fn blocked_parallel(level: SimdLevel, p: &Product, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (mr, nr) = level.tile();
    let c_span = p.spans()[2];
    assert!(c_span <= c.len(), "gemm: C does not cover the product");
    let c_out = UnsafeSlice::new(c);
    pool::with_pack_b_scratch(|bpack| {
        for (j0, cols) in col_blocks(p.n, p.k, nr) {
            let bpack: &[f32] = pack_b(p, b, j0, cols, nr, bpack);
            pool::parallel_for(p.m.div_ceil(MC), |chunk| {
                let (i0, rows) = (chunk * MC, MC.min(p.m - chunk * MC));
                // SAFETY: chunk `i` writes only C rows `i*MC .. i*MC+rows`,
                // disjoint across chunk indices.
                let c_all = unsafe { c_out.slice_mut(0, c_span) };
                pool::with_pack_a_scratch(|apack| {
                    pack_a(p, a, i0, rows, mr, apack);
                    multiply(level, p, apack, bpack, c_all, (i0, rows), (j0, cols));
                });
            });
        }
    });
}

/// Multiplies the packed A of rows `i0..i0 + rows` by the packed B block
/// of columns `j0..j0 + cols`, adding each full-depth tile to C.
fn multiply(
    level: SimdLevel,
    p: &Product,
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    (i0, rows): (usize, usize),
    (j0, cols): (usize, usize),
) {
    let (mr, nr) = level.tile();
    let k = p.k;
    let mut acc = [0.0f32; MAX_TILE];
    let acc = &mut acc[..mr * nr];
    for jp in 0..cols.div_ceil(nr) {
        let b_panel = &bpack[jp * k * nr..(jp + 1) * k * nr];
        let (j, width) = (j0 + jp * nr, nr.min(cols - jp * nr));
        for ip in 0..rows.div_ceil(mr) {
            let a_panel = &apack[ip * k * mr..(ip + 1) * k * mr];
            micro_tile(level, k, a_panel, b_panel, acc, false);
            for r in 0..mr.min(rows - ip * mr) {
                let at = (i0 + ip * mr + r) * p.ldc + j;
                let c_row = &mut c[at..at + width];
                for (c_ij, &v) in c_row.iter_mut().zip(acc[r * nr..r * nr + nr].iter()) {
                    *c_ij += v;
                }
            }
        }
    }
}

/// One register tile at tier `level`: `acc (mr×nr, row-major) = [acc +]
/// A panel (k×mr) · B panel (k×nr)`. With `carry` the tile goes in as
/// well as out, so a product whose depth is streamed in blocks carries it
/// from one block to the next; without, the accumulators start at zero
/// and what `acc` held is ignored. Per element both are the same single
/// FMA chain from `+0.0`, `p` ascending.
///
/// # Panics
///
/// Panics if a panel or the tile does not have the tier's shape.
pub(crate) fn micro_tile(
    level: SimdLevel,
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc: &mut [f32],
    carry: bool,
) {
    let (mr, nr) = level.tile();
    assert_eq!(a_panel.len(), k * mr, "micro_tile: A panel is not k×mr");
    assert_eq!(b_panel.len(), k * nr, "micro_tile: B panel is not k×nr");
    assert_eq!(acc.len(), mr * nr, "micro_tile: tile is not mr×nr");
    match level {
        SimdLevel::Scalar => micro_scalar(k, a_panel, b_panel, acc, carry),
        // SAFETY: a non-scalar level is only ever produced by
        // `simd_level` or accepted by the `*_with` entry points after
        // `supported()` held, and the lengths were checked above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { micro_avx2_6x16(k, a_panel, b_panel, acc, carry) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { micro_avx512_8x32(k, a_panel, b_panel, acc, carry) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar SIMD level on a non-x86_64 target"),
    }
}

/// The portable register-tile microkernel: the full-depth [`MR`]×[`NR`]
/// product of one packed A panel and one packed B panel, written to
/// `acc_out` — on top of what it held if `carry`.
/// Accumulation per output element runs over `p` in strictly increasing
/// order via FMA — the determinism anchor every SIMD tier reproduces.
#[inline]
fn micro_scalar(k: usize, a_panel: &[f32], b_panel: &[f32], acc_out: &mut [f32], carry: bool) {
    debug_assert_eq!(a_panel.len(), k * MR);
    debug_assert_eq!(b_panel.len(), k * NR);
    debug_assert_eq!(acc_out.len(), MR * NR);
    let mut acc = [[0.0f32; NR]; MR];
    if carry {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&acc_out[r * NR..(r + 1) * NR]);
        }
    }
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
/// 8-lane halves), loaded from `acc_out` if `carry` and stored back to
/// it, one broadcast + two FMAs per row per `p`. Per output
/// element the accumulation is a single FMA chain over increasing `p` —
/// bit-identical to [`micro_scalar`].
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available, `a_panel.len() == 6k`,
/// `b_panel.len() == 16k`, and `acc_out.len() == 96`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_avx2_6x16(
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc_out: &mut [f32],
    carry: bool,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a_panel.len(), k * 6);
    debug_assert_eq!(b_panel.len(), k * 16);
    debug_assert_eq!(acc_out.len(), 6 * 16);
    let a = a_panel.as_ptr();
    let b = b_panel.as_ptr();
    let out = acc_out.as_mut_ptr();
    let mut acc: [__m256; 12] = [_mm256_setzero_ps(); 12];
    if carry {
        for r in 0..6 {
            acc[2 * r] = _mm256_loadu_ps(out.add(r * 16));
            acc[2 * r + 1] = _mm256_loadu_ps(out.add(r * 16 + 8));
        }
    }
    for p in 0..k {
        let b0 = _mm256_loadu_ps(b.add(p * 16));
        let b1 = _mm256_loadu_ps(b.add(p * 16 + 8));
        for r in 0..6 {
            let av = _mm256_broadcast_ss(&*a.add(p * 6 + r));
            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
        }
    }
    for r in 0..6 {
        _mm256_storeu_ps(out.add(r * 16), acc[2 * r]);
        _mm256_storeu_ps(out.add(r * 16 + 8), acc[2 * r + 1]);
    }
}

/// AVX-512F 8×32 microkernel: 16 `zmm` accumulators (8 rows × two
/// 16-lane halves), loaded from `acc_out` if `carry` and stored back
/// to it, depth unrolled ×2. The unroll issues the `p` FMAs
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
unsafe fn micro_avx512_8x32(
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc_out: &mut [f32],
    carry: bool,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a_panel.len(), k * 8);
    debug_assert_eq!(b_panel.len(), k * 32);
    debug_assert_eq!(acc_out.len(), 8 * 32);
    let a = a_panel.as_ptr();
    let b = b_panel.as_ptr();
    let out = acc_out.as_mut_ptr();
    let mut acc: [__m512; 16] = [_mm512_setzero_ps(); 16];
    if carry {
        for r in 0..8 {
            acc[2 * r] = _mm512_loadu_ps(out.add(r * 32));
            acc[2 * r + 1] = _mm512_loadu_ps(out.add(r * 32 + 16));
        }
    }
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
    for r in 0..8 {
        _mm512_storeu_ps(out.add(r * 32), acc[2 * r]);
        _mm512_storeu_ps(out.add(r * 32 + 16), acc[2 * r + 1]);
    }
}

/// Packs columns `first..first + width` of `op(B)` into `nr`-column
/// panels: element `(p, first + jp*nr + c)` lands at `(jp*k + p)*nr + c`
/// of the returned prefix of the (reused, possibly longer) scratch
/// buffer, zero-padded past the block's last column. Every element of
/// that prefix is written each call — stale data never leaks into the
/// product.
fn pack_b<'s>(
    p: &Product,
    b: &[f32],
    first: usize,
    width: usize,
    nr: usize,
    bpack: &'s mut Vec<f32>,
) -> &'s [f32] {
    let (k, ldb) = (p.k, p.ldb);
    let col_panels = width.div_ceil(nr);
    let bpack = b_scratch(bpack, col_panels * k * nr);
    for jp in 0..col_panels {
        let j0 = first + jp * nr;
        let cols = nr.min(width - jp * nr);
        let panel = &mut bpack[jp * k * nr..(jp + 1) * k * nr];
        match p.layout {
            // B is k×n row-major: copy `cols` contiguous values per p,
            // zeroing only the pad lanes of a ragged final panel.
            Layout::NN | Layout::TN => {
                for q in 0..k {
                    let at = q * ldb + j0;
                    panel[q * nr..q * nr + cols].copy_from_slice(&b[at..at + cols]);
                    panel[q * nr + cols..(q + 1) * nr].fill(0.0);
                }
            }
            // B is n×k row-major (the operand of `A · Bᵀ`): column j of
            // op(B) is row j of B. A ragged final panel is cleared first
            // because its writes are strided.
            Layout::NT => {
                if cols < nr {
                    panel.fill(0.0);
                }
                interleave_rows(&b[j0 * ldb..], ldb, cols, k, nr, panel);
            }
        }
    }
    bpack
}

/// Depth positions interleaved per pass of [`interleave_rows`]: a
/// `PACK_DEPTH × 32` destination block is 16 KiB and stays in L1 while
/// the source rows make their passes over it.
const PACK_DEPTH: usize = 128;

/// The transposing copy both packs and the no-pack `A · Bᵀ` share: row
/// `i` of `src` (`rows` rows of `k` values at pitch `ld`) lands at
/// `panel[p * width + i]`. Reads stream along the rows and writes are
/// strided, so the depth is cut into [`PACK_DEPTH`] blocks — at a conv
/// weight gradient's depth of thousands an unblocked pass per row sweeps
/// the whole panel through L2 once per row (1.8 ns per element against
/// 0.25) — and rows go eight at a time, so each depth position receives
/// eight adjacent values at once.
pub(crate) fn interleave_rows(
    src: &[f32],
    ld: usize,
    rows: usize,
    k: usize,
    width: usize,
    panel: &mut [f32],
) {
    const LANES: usize = 8;
    for p0 in (0..k).step_by(PACK_DEPTH) {
        let depth = PACK_DEPTH.min(k - p0);
        let block = &mut panel[p0 * width..(p0 + depth) * width];
        let row = |i: usize| &src[i * ld + p0..i * ld + p0 + depth];
        let mut i = 0;
        while i + LANES <= rows {
            let lanes: [&[f32]; LANES] = std::array::from_fn(|j| row(i + j));
            for (p, out) in block.chunks_exact_mut(width).enumerate() {
                for (slot, lane) in out[i..i + LANES].iter_mut().zip(&lanes) {
                    *slot = lane[p];
                }
            }
            i += LANES;
        }
        for i in i..rows {
            for (p, &v) in row(i).iter().enumerate() {
                block[p * width + i] = v;
            }
        }
    }
}

/// Packs `rows` rows of `op(A)` starting at `i0` into `mr`-row panels:
/// element `(i0+r', p)` of `op(A)` lands at `apack[(ip*k + p)*mr + r]`,
/// zero-padded past `rows`. Returns the packed length (see [`pack_b`]
/// for the scratch-reuse contract).
pub(crate) fn pack_a(
    p: &Product,
    a: &[f32],
    i0: usize,
    rows: usize,
    mr: usize,
    apack: &mut Vec<f32>,
) -> usize {
    let (k, lda) = (p.k, p.lda);
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
        match p.layout {
            // A is m×k row-major.
            Layout::NN | Layout::NT => {
                interleave_rows(&a[r0 * lda..], lda, tile_rows, k, mr, panel);
            }
            // A is k×m row-major (the operand of `Aᵀ · B`): row i of
            // op(A) is column i of A, so each p contributes a contiguous
            // run of `tile_rows` values.
            Layout::TN => {
                for q in 0..k {
                    let at = q * lda + r0;
                    panel[q * mr..q * mr + tile_rows].copy_from_slice(&a[at..at + tile_rows]);
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
                gemm_any(&Product::dense(layout, m, k, n), &a, &b, &mut via_dispatch);
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
            gemm_any(&Product::dense(layout, 0, 3, 0), &[], &[], &mut c);
            let mut c = vec![0.5f32; 6];
            gemm_any(&Product::dense(layout, 2, 0, 3), &[], &[], &mut c);
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
