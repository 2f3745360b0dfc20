//! Scalar-vs-SIMD bit-parity tests for the GEMM microkernel tiers.
//!
//! The kernel layer's determinism contract says every tier —
//! portable scalar, AVX2+FMA, AVX-512F — computes each output element
//! as the same in-order FMA chain over depth, so forcing any supported
//! tier through [`kernels::gemm_blocked_with`] must reproduce the
//! forced-scalar result (and the per-element reference) to the last
//! bit, at sizes that are deliberately ragged against every tile shape
//! in play (scalar 8×8, AVX2 6×16, AVX-512 8×32 with ×2 depth unroll).
//!
//! The dispatched entry points (`gemm`/`gemm_nt`/`gemm_tn`, i.e.
//! whatever [`kernels::simd_level`] picked on this host) and the
//! tier-less no-pack kernel get the same treatment, and a threaded run
//! under the dispatched tier must match the single-threaded one — the
//! `PIPEMARE_NUM_THREADS` guarantee does not bend under SIMD.
//!
//! The blocked convolution passes drive the same microkernels with other
//! panel sources and tile sinks, so they get the same treatment against
//! their own oracle — the patch-matrix path in `pipemare-conv-oracle`,
//! which that crate's tests anchor to convolution's definition — at every
//! tier and at 1, 2 and 4 pool threads.
//!
//! The statistics folds of `pipemare_tensor::fold` put slices in the
//! lanes instead of splitting a sum, so every vector tier must return the
//! scalar tier's sums bit for bit — and the scalar tier those of a plain
//! loop over each slice — whatever the slice count, run length and values.

use proptest::prelude::*;
use rand::SeedableRng;

use pipemare_tensor::fold::{self, FoldDims};
use pipemare_tensor::kernels::{self, Layout, Product, SimdLevel};
use pipemare_tensor::{conv, pool, Conv2dGeometry, ConvProblem, ThreadPool};

use pipemare_conv_oracle::{self as conv_oracle, Case};

/// Per-element scalar FMA reference for `C += op(A) · op(B)`.
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

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn randvec(len: usize, seed: u64) -> Vec<f32> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// Every tier this CPU can actually execute (always includes Scalar).
fn runnable_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|l| l.supported())
        .collect()
}

fn operand_lens(layout: Layout, m: usize, k: usize, n: usize) -> (usize, usize) {
    match layout {
        Layout::NN => (m * k, k * n),
        Layout::NT => (m * k, n * k),
        Layout::TN => (k * m, k * n),
    }
}

/// Runs the three passes of `case` at every runnable tier inside pools of
/// 1, 2 and 4 threads, each into a buffer of NaNs (every element must be
/// written), and compares with the oracle bit for bit.
fn check_conv_against_oracle(name: &str, case: &Case) -> Result<(), String> {
    use std::sync::{Arc, OnceLock};
    static POOLS: OnceLock<[Arc<ThreadPool>; 3]> = OnceLock::new();
    let pools = POOLS.get_or_init(|| [1, 2, 4].map(ThreadPool::new));
    let want = case.oracle();
    let problem = &case.problem;
    for pool in pools {
        for level in runnable_levels() {
            let (mut y, mut dx) = (vec![f32::NAN; want.y.len()], vec![f32::NAN; want.dx.len()]);
            let mut dw = vec![f32::NAN; want.dw.len()];
            pool::with_pool(pool, || {
                conv::forward(level, problem, &case.kernel, case.bias.as_deref(), &case.x, &mut y);
                conv::backward_weights(level, problem, &case.x, &case.dy, &mut dw);
                conv::backward_input(level, problem, &case.kernel, &case.dy, &mut dx);
            });
            for (what, got, want) in
                [("y", &y, &want.y), ("dW", &dw, &want.dw), ("dx", &dx, &want.dx)]
            {
                if conv_oracle::bits(got) != conv_oracle::bits(want) {
                    return Err(format!(
                        "{name}: {what} at {} on {} threads left the oracle ({problem:?})",
                        level.name(),
                        pool.threads()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The hand-picked convolutions: non-finite operands, chains that round
/// to −0.0, planes of 5×7, 4×4 and 1×1, a batch the pool splits.
#[test]
fn conv_special_cases_match_the_oracle_at_every_tier_and_pool_width() {
    let cases = conv_oracle::special_cases();
    for (name, case) in &cases {
        check_conv_against_oracle(name, case).unwrap();
    }
    // The cases are only worth their name if the oracle shows the trait.
    let oracle = |wanted: &str| {
        let (_, case) = cases.iter().find(|(name, _)| name.starts_with(wanted)).expect("case");
        (case.oracle(), case)
    };
    let (non_finite, _) = oracle("non-finite");
    for out in [&non_finite.y, &non_finite.dw, &non_finite.dx] {
        assert!(out.iter().any(|v| v.is_nan()) && out.iter().any(|v| v.is_finite()));
    }
    let (corner, case) = oracle("infinite corner taps");
    assert!(corner.dx.iter().any(|v| v.is_infinite()) && !corner.dx.iter().any(|v| v.is_nan()));
    assert!(case.kernel[0].is_infinite());
    let (tiny, _) = oracle("operands near 1e-30, stride 2");
    assert!(tiny.y.iter().all(|v| v.to_bits() == 0), "every chain underflows to +0.0 once stored");
}

/// Bit patterns with every NaN mapped to one: where a sum that is already
/// a NaN meets another, which of the two signs and payloads survives is
/// the instruction's operand order, which Rust leaves to the compiler.
fn sum_bits(sums: &[f32]) -> Vec<u32> {
    sums.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Every sum the folds return, per slice: `[Σx, Σ(x−m)², Σa, Σab, the four
/// of `norm_grad`]`.
fn all_folds(
    level: SimdLevel,
    dims: FoldDims,
    x: &[f32],
    h: &[f32],
    [m, gamma]: [&[f32]; 2],
) -> Vec<Vec<u32>> {
    let mut out: [Vec<f32>; 8] = std::array::from_fn(|_| vec![f32::NAN; dims.slices]);
    let [s0, s1, s2, s3, a, b, c, d] = &mut out;
    fold::sum(level, dims, x, s0);
    fold::sq_dev(level, dims, x, m, s1);
    fold::dot(level, dims, x, h, s2, s3);
    fold::norm_grad(level, dims, x, h, gamma, [a, b, c, d]);
    out.iter().map(|sums| sum_bits(sums)).collect()
}

/// The same sums from a plain loop over each slice, one slice at a time.
fn all_folds_by_slice(
    dims: FoldDims,
    x: &[f32],
    h: &[f32],
    [m, gamma]: [&[f32]; 2],
) -> Vec<Vec<u32>> {
    let fold_slice = |init: f32, f: &dyn Fn(usize, usize) -> f32| -> Vec<u32> {
        let slice = |s: usize| {
            let elems = (0..dims.outer).flat_map(move |o| {
                (0..dims.run).map(move |j| (o * dims.slices + s) * dims.run + j)
            });
            elems.fold(init, |acc, i| acc + f(s, i))
        };
        sum_bits(&(0..dims.slices).map(slice).collect::<Vec<f32>>())
    };
    vec![
        fold_slice(-0.0, &|_, i| x[i]),
        fold_slice(-0.0, &|s, i| (x[i] - m[s]) * (x[i] - m[s])),
        fold_slice(0.0, &|_, i| x[i]),
        fold_slice(0.0, &|_, i| x[i] * h[i]),
        fold_slice(0.0, &|_, i| x[i] * h[i]),
        fold_slice(0.0, &|_, i| x[i]),
        fold_slice(0.0, &|s, i| x[i] * gamma[s]),
        fold_slice(0.0, &|s, i| x[i] * gamma[s] * h[i]),
    ]
}

fn check_folds(dims: FoldDims, x: &[f32], h: &[f32], coefs: [&[f32]; 2]) -> Result<(), String> {
    let scalar = all_folds(SimdLevel::Scalar, dims, x, h, coefs);
    if scalar != all_folds_by_slice(dims, x, h, coefs) {
        return Err(format!("scalar folds left the per-slice loop ({dims:?})"));
    }
    for level in runnable_levels() {
        if all_folds(level, dims, x, h, coefs) != scalar {
            return Err(format!("{} folds left the scalar tier ({dims:?})", level.name()));
        }
    }
    Ok(())
}

/// One kind of trouble per slice, the kinds cycling so that every lane
/// and the ragged last block of slices meet each: infinities of one sign
/// and of both, NaNs, values whose squares and products underflow, slices
/// of nothing but `−0.0` — and plain ones beside them, which must not
/// notice.
#[test]
fn folds_keep_special_values_at_every_tier() {
    for dims in [
        FoldDims { outer: 2, slices: 19, run: 35 },
        FoldDims { outer: 1, slices: 16, run: 32 },
        FoldDims { outer: 3, slices: 7, run: 9 },
    ] {
        let (mut x, mut h) = (randvec(dims.len(), 11), randvec(dims.len(), 12));
        for i in 0..dims.len() {
            let (s, j) = (i / dims.run % dims.slices, i % dims.run);
            match (s % 6, j % 4) {
                (0, 1) => x[i] = f32::INFINITY,
                (1, 1) => x[i] = f32::NEG_INFINITY,
                (1, 3) => h[i] = f32::INFINITY,
                (2, 2) => x[i] = f32::NAN,
                (3, _) => (x[i], h[i]) = (x[i] * 1e-30, h[i] * 1e-12),
                (4, _) => (x[i], h[i]) = (-0.0, -0.0),
                _ => {}
            }
        }
        let (m, gamma) = (randvec(dims.slices, 13), randvec(dims.slices, 14));
        check_folds(dims, &x, &h, [&m, &gamma]).unwrap();
        // The cases are only worth their name if the sums show the trait.
        let sums = all_folds(SimdLevel::Scalar, dims, &x, &h, [&m, &gamma]);
        let value = |k: usize, s: usize| f32::from_bits(sums[k][s]);
        assert_eq!(value(0, 0), f32::INFINITY);
        assert!(value(3, 1).is_nan() && value(0, 2).is_nan());
        assert!(value(3, 3) != 0.0 && value(3, 3).abs() < f32::MIN_POSITIVE, "a subnormal sum");
        assert_eq!((sums[0][4], sums[2][4]), ((-0.0f32).to_bits(), 0), "−0.0 stays, +0.0 + −0.0");
        assert!((0..8).all(|k| value(k, 5).is_finite()), "a plain slice beside them");
    }
}

/// Ragged against every tile edge: below, on, and just past the scalar
/// 8×8, AVX2 6×16, and AVX-512 8×32 tiles, with odd depths to exercise
/// the ×2 depth-unroll remainder.
const DIMS: [usize; 14] = [1, 3, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported tier, every layout: forced through
    /// `gemm_blocked_with`, bit-identical to forced-scalar and to the
    /// per-element reference.
    #[test]
    fn forced_tiers_match_scalar_bit_for_bit(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1000,
    ) {
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let (a_len, b_len) = operand_lens(layout, m, k, n);
            let a = randvec(a_len, seed);
            let b = randvec(b_len, seed + 7);
            let want = reference(layout, &a, &b, m, k, n);
            let mut scalar = vec![0.0f32; m * n];
            kernels::gemm_blocked_with(SimdLevel::Scalar, layout, &a, &b, &mut scalar, m, k, n);
            prop_assert_eq!(bits(&scalar), bits(&want), "scalar {:?} {}x{}x{}", layout, m, k, n);
            for level in runnable_levels() {
                let mut c = vec![0.0f32; m * n];
                kernels::gemm_blocked_with(level, layout, &a, &b, &mut c, m, k, n);
                prop_assert_eq!(
                    bits(&c),
                    bits(&scalar),
                    "{} {:?} {}x{}x{} diverged from scalar",
                    level.name(), layout, m, k, n
                );
            }
        }
    }

    /// The no-pack kernel is portable code with no tier of its own, and
    /// it must land on the bits every tier of the blocked kernel lands
    /// on — so which side of the dispatch line a product falls on never
    /// shows, at any `PIPEMARE_SIMD` setting.
    #[test]
    fn no_pack_matches_every_blocked_tier(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1000,
    ) {
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let (a_len, b_len) = operand_lens(layout, m, k, n);
            let a = randvec(a_len, seed);
            let b = randvec(b_len, seed + 17);
            let init = randvec(m * n, seed + 19);
            let mut no_pack = init.clone();
            kernels::gemm_no_pack(&Product::dense(layout, m, k, n), &a, &b, &mut no_pack);
            for level in runnable_levels() {
                let mut blocked = init.clone();
                kernels::gemm_blocked_with(level, layout, &a, &b, &mut blocked, m, k, n);
                prop_assert_eq!(
                    bits(&no_pack),
                    bits(&blocked),
                    "no-pack vs {} {:?} {}x{}x{}",
                    level.name(), layout, m, k, n
                );
            }
        }
    }

    /// The dispatched entry points (whatever tier `simd_level()` picked)
    /// accumulate into non-zero C exactly like the forced-scalar path.
    #[test]
    fn dispatched_entry_points_match_forced_scalar(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1000,
    ) {
        type Entry = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let entries: [(Entry, Layout); 3] = [
            (kernels::gemm, Layout::NN),
            (kernels::gemm_nt, Layout::NT),
            (kernels::gemm_tn, Layout::TN),
        ];
        for (entry, layout) in entries {
            let (a_len, b_len) = operand_lens(layout, m, k, n);
            let a = randvec(a_len, seed);
            let b = randvec(b_len, seed + 13);
            let init = randvec(m * n, seed + 29);
            let mut got = init.clone();
            entry(&a, &b, &mut got, m, k, n);
            let mut want = init;
            kernels::gemm_blocked_with(SimdLevel::Scalar, layout, &a, &b, &mut want, m, k, n);
            prop_assert_eq!(
                bits(&got),
                bits(&want),
                "dispatched {:?} ({}) {}x{}x{}",
                layout, kernels::simd_level().name(), m, k, n
            );
        }
    }

    /// Slice counts on both sides of 8 and 16 lanes, run lengths off every
    /// multiple of them, slices that recur (`outer` > 1): every tier
    /// returns the scalar tier's sums, and the scalar tier a plain loop's.
    #[test]
    fn folds_match_the_scalar_tier_bit_for_bit(
        outer in 1usize..4,
        slices in dim(),
        run in dim(),
        seed in 0u64..1000,
    ) {
        let dims = FoldDims { outer, slices, run };
        let (x, h) = (randvec(dims.len(), seed), randvec(dims.len(), seed + 1));
        let coefs = [seed + 2, seed + 3].map(|s| randvec(slices, s));
        let checked = check_folds(dims, &x, &h, [&coefs[0], &coefs[1]]);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// Convolutions over kernel ∈ {1, 3, 5}, stride 1–3, padding 0–2,
    /// channel counts off every `mr`, planes off every `nr`: every tier,
    /// every pool width, bit-identical to the patch-matrix oracle.
    #[test]
    fn conv_passes_match_the_oracle_at_every_tier_and_pool_width(
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
        let geom = Conv2dGeometry {
            in_channels: in_c,
            in_h: fit(h),
            in_w: fit(w),
            kernel: k,
            stride,
            padding,
        };
        let problem = ConvProblem { geom, out_channels: out_c, batch };
        let checked = check_conv_against_oracle("random", &Case::random(problem, bias, 1.0, seed));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// Thread-count invariance under the dispatched SIMD tier: the pool
    /// splits rows into fixed `MC` chunks, so 1 vs 4 workers must be
    /// bit-identical even when each chunk runs the vector microkernel.
    #[test]
    fn threaded_simd_matches_single_thread(seed in 0u64..200) {
        // Big enough to cross the parallel-dispatch threshold with
        // several row chunks, ragged against every tile shape.
        let (m, k, n) = (2 * kernels::MC + 5, 67, 95);
        let a = randvec(m * k, seed);
        let b = randvec(k * n, seed + 3);
        let mut serial = vec![0.0f32; m * n];
        kernels::gemm(&a, &b, &mut serial, m, k, n);
        let p = ThreadPool::new(4);
        let mut threaded = vec![0.0f32; m * n];
        pool::with_pool(&p, || kernels::gemm(&a, &b, &mut threaded, m, k, n));
        prop_assert_eq!(bits(&threaded), bits(&serial));
        prop_assert_eq!(bits(&serial), bits(&reference(Layout::NN, &a, &b, m, k, n)));
    }
}

/// Products whose B spans several packed blocks (`k·n` above
/// `B_BLOCK`): at 70×520×200 each tier cuts B at its own whole-panel
/// boundary, leaving a ragged last block, and at 3×8200×20 one panel is
/// already more than a block at every tier, so each block is one panel.
/// Every tier, and the no-pack kernel, lands on the scalar tier's bits.
#[test]
fn multi_block_products_match_scalar_at_every_tier() {
    for (m, k, n) in [(70, 520, 200), (3, 8200, 20)] {
        assert!(k * n > kernels::B_BLOCK, "{m}x{k}x{n} fits one block");
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let (a_len, b_len) = operand_lens(layout, m, k, n);
            let a = randvec(a_len, 53);
            let b = randvec(b_len, 59);
            let want = bits(&reference(layout, &a, &b, m, k, n));
            for level in runnable_levels() {
                let mut c = vec![0.0f32; m * n];
                kernels::gemm_blocked_with(level, layout, &a, &b, &mut c, m, k, n);
                assert_eq!(bits(&c), want, "{} {layout:?} {m}x{k}x{n}", level.name());
            }
            let mut c = vec![0.0f32; m * n];
            kernels::gemm_no_pack(&Product::dense(layout, m, k, n), &a, &b, &mut c);
            assert_eq!(bits(&c), want, "no-pack {layout:?} {m}x{k}x{n}");
        }
    }
}

/// The determinism contract holds for the tiers themselves: whatever
/// `simd_level()` resolved to on this host is in the runnable set, and
/// forcing it reproduces the dispatched `gemm_blocked` exactly.
#[test]
fn dispatched_level_is_runnable_and_reproducible() {
    let level = kernels::simd_level();
    assert!(runnable_levels().contains(&level), "{} not runnable", level.name());
    let (m, k, n) = (33, 17, 47);
    let a = randvec(m * k, 5);
    let b = randvec(k * n, 6);
    let mut dispatched = vec![0.0f32; m * n];
    kernels::gemm_blocked(Layout::NN, &a, &b, &mut dispatched, m, k, n);
    let mut forced = vec![0.0f32; m * n];
    kernels::gemm_blocked_with(level, Layout::NN, &a, &b, &mut forced, m, k, n);
    assert_eq!(bits(&dispatched), bits(&forced));
}
