//! Property tests of the GEMM kernel layer.
//!
//! Every production path — the no-pack small-product kernel, the blocked
//! kernel, the pool-parallel kernel at any thread count, and the batched
//! entry point over dense or head-strided operands — must agree
//! **bit-for-bit** with a per-element scalar reference that accumulates
//! `fma(a_ip, b_pj, ·)` over `p` in increasing order. Sizes deliberately
//! straddle the microkernel tile (`MR`/`NR`), the no-pack tiles (1, 2 or
//! 4 rows, up to 128 lanes), the parallel chunk (`MC`), and the dispatch
//! line.

use proptest::prelude::*;
use rand::SeedableRng;

use pipemare_tensor::kernels::{self, BatchStride, Layout, Product, MC, MR, NR};
use pipemare_tensor::{pool, Tensor, ThreadPool};

/// Per-element scalar FMA reference for `C = op(A) · op(B)` (zero C).
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

/// `C += op(A) · op(B)` over operands at their leading dimensions: the
/// per-element chain from zero, then one add into C.
fn reference_strided(p: &Product, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..p.m {
        for j in 0..p.n {
            let mut acc = 0.0f32;
            for q in 0..p.k {
                let (x, y) = match p.layout {
                    Layout::NN => (a[i * p.lda + q], b[q * p.ldb + j]),
                    Layout::NT => (a[i * p.lda + q], b[j * p.ldb + q]),
                    Layout::TN => (a[q * p.lda + i], b[q * p.ldb + j]),
                };
                acc = x.mul_add(y, acc);
            }
            c[i * p.ldc + j] += acc;
        }
    }
}

/// Stored `(rows, cols)` of A and of B.
fn stored(layout: Layout, m: usize, k: usize, n: usize) -> ((usize, usize), (usize, usize)) {
    match layout {
        Layout::NN => ((m, k), (k, n)),
        Layout::NT => ((m, k), (n, k)),
        Layout::TN => ((k, m), (k, n)),
    }
}

/// A product whose three operands sit inside wider matrices: each
/// leading dimension is the stored row length plus its pad.
fn padded(layout: Layout, (m, k, n): (usize, usize, usize), pad: [usize; 3]) -> Product {
    let ((_, a_cols), (_, b_cols)) = stored(layout, m, k, n);
    Product { layout, m, k, n, lda: a_cols + pad[0], ldb: b_cols + pad[1], ldc: n + pad[2] }
}

/// Slice lengths that exactly cover the operands of `p`.
fn cover(p: &Product) -> [usize; 3] {
    let ((a_rows, a_cols), (b_rows, b_cols)) = stored(p.layout, p.m, p.k, p.n);
    [(a_rows - 1) * p.lda + a_cols, (b_rows - 1) * p.ldb + b_cols, (p.m - 1) * p.ldc + p.n]
}

/// Bit patterns with every NaN folded onto one: which payload an FMA
/// hands on when two NaNs meet depends on the operand order the compiler
/// chose for the instruction, which no kernel promises.
fn bits_nan_folded(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

fn randvec(len: usize, seed: u64) -> Vec<f32> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// Dimensions that straddle the tile and chunk boundaries.
const DIMS: [usize; 14] = [1, 2, 3, 5, 7, MR, MR + 1, NR + 1, 17, 31, 33, MC - 1, MC, MC + 1];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_all_layouts_bit_exact(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = Tensor::from_vec(randvec(m * k, seed), &[m, k]);
        let b = Tensor::from_vec(randvec(k * n, seed + 1), &[k, n]);
        prop_assert_eq!(
            bits(a.matmul(&b).data()),
            bits(&reference(Layout::NN, a.data(), b.data(), m, k, n))
        );
        let bt = Tensor::from_vec(randvec(n * k, seed + 2), &[n, k]);
        prop_assert_eq!(
            bits(a.matmul_nt(&bt).data()),
            bits(&reference(Layout::NT, a.data(), bt.data(), m, k, n))
        );
        let at = Tensor::from_vec(randvec(k * m, seed + 3), &[k, m]);
        prop_assert_eq!(
            bits(at.matmul_tn(&b).data()),
            bits(&reference(Layout::TN, at.data(), b.data(), m, k, n))
        );
    }

    #[test]
    fn blocked_direct_bit_exact_any_size(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        // The blocked kernel invoked directly (below its usual dispatch
        // threshold too) must still match the scalar reference.
        let a = randvec(m * k, seed);
        let b = randvec(k * n, seed + 9);
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let (a_len, b_len) = match layout {
                Layout::NN => (m * k, k * n),
                Layout::NT => (m * k, n * k),
                Layout::TN => (k * m, k * n),
            };
            let mut c = vec![0.0f32; m * n];
            kernels::gemm_blocked(layout, &a[..a_len], &b[..b_len], &mut c, m, k, n);
            prop_assert_eq!(
                bits(&c),
                bits(&reference(layout, &a[..a_len], &b[..b_len], m, k, n)),
                "layout {:?} {}x{}x{}", layout, m, k, n
            );
        }
    }

    #[test]
    fn no_pack_bit_exact_at_any_leading_dimension(
        mn in (1usize..=20).prop_flat_map(|m| (Just(m), 1usize..=if m <= 4 { 300 } else { 70 })),
        k in 1usize..=70,
        pad in (0usize..4, 0usize..4, 0usize..4),
        seed in 0u64..1000,
    ) {
        let (m, n) = mn;
        // Ragged last vector, a single row, a single column, and C
        // pre-loaded: the kernel adds to what is there and touches nothing
        // between the rows. Short products take tiles up to 128 lanes
        // wide, so their n reaches two whole tiles and a shifted third.
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let p = padded(layout, (m, k, n), [pad.0, pad.1, pad.2]);
            let [a_len, b_len, c_len] = cover(&p);
            let a = randvec(a_len, seed);
            let b = randvec(b_len, seed + 1);
            let init = randvec(c_len, seed + 2);
            let mut want = init.clone();
            reference_strided(&p, &a, &b, &mut want);
            let mut got = init;
            kernels::gemm_no_pack(&p, &a, &b, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "{:?}", p);
        }
    }

    #[test]
    fn no_pack_carries_nan_negative_zero_and_subnormals(
        m in 1usize..=9,
        k in 1usize..=20,
        n in 1usize..=35,
        seed in 0u64..1000,
    ) {
        use rand::Rng;
        const SPECIAL: [f32; 6] =
            [f32::NAN, -0.0, 0.0, 1.0e-40, -1.0e-41, f32::INFINITY];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sprinkle = |xs: &mut [f32]| {
            for x in xs.iter_mut() {
                if rng.gen_range(0..4) == 0 {
                    *x = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                }
            }
        };
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let p = Product::dense(layout, m, k, n);
            let (mut a, mut b) = (randvec(m * k, seed + 3), randvec(k * n, seed + 4));
            sprinkle(&mut a);
            sprinkle(&mut b);
            // An all-(-0.0) product added to -0.0 must stay -0.0.
            let mut want = vec![-0.0f32; m * n];
            reference_strided(&p, &a, &b, &mut want);
            let mut got = vec![-0.0f32; m * n];
            kernels::gemm_no_pack(&p, &a, &b, &mut got);
            prop_assert_eq!(bits_nan_folded(&got), bits_nan_folded(&want), "{:?}", p);
            let mut blocked = vec![-0.0f32; m * n];
            kernels::gemm_blocked(layout, &a, &b, &mut blocked, m, k, n);
            prop_assert_eq!(bits_nan_folded(&blocked), bits_nan_folded(&want), "blocked {:?}", p);
        }
    }

    #[test]
    fn both_sides_of_the_dispatch_line_agree_at_the_line(
        k in 1usize..=96,
        n in 1usize..=96,
        seed in 0u64..1000,
    ) {
        // The first m the dispatcher sends to the blocked kernel, and the
        // last it keeps on the no-pack kernel: at both, either kernel and
        // the dispatching entry point give the same bits.
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let first_blocked =
                (1usize..).find(|&m| !kernels::no_pack_is_faster(layout, m, k, n)).unwrap();
            for m in [first_blocked.saturating_sub(1).max(1), first_blocked] {
                let p = Product::dense(layout, m, k, n);
                let (a, b) = (randvec(m * k, seed), randvec(k * n, seed + 6));
                let init = randvec(m * n, seed + 7);
                let mut no_pack = init.clone();
                kernels::gemm_no_pack(&p, &a, &b, &mut no_pack);
                let mut blocked = init.clone();
                kernels::gemm_blocked(layout, &a, &b, &mut blocked, m, k, n);
                let mut dispatched = init;
                match layout {
                    Layout::NN => kernels::gemm(&a, &b, &mut dispatched, m, k, n),
                    Layout::NT => kernels::gemm_nt(&a, &b, &mut dispatched, m, k, n),
                    Layout::TN => kernels::gemm_tn(&a, &b, &mut dispatched, m, k, n),
                }
                prop_assert_eq!(bits(&no_pack), bits(&blocked), "{:?}", p);
                prop_assert_eq!(bits(&dispatched), bits(&blocked), "dispatch {:?}", p);
            }
        }
    }

    #[test]
    fn head_strided_batch_equals_per_head_products(
        groups in 1usize..4,
        heads in 1usize..5,
        tq in 1usize..9,
        tk in 1usize..9,
        dh in 1usize..10,
        seed in 0u64..1000,
    ) {
        // Attention's six products: Q, K, V, dQ… are (groups·t, heads·dh)
        // matrices whose heads are column blocks; scores are one dense
        // (tq, tk) block after the other.
        let d = heads * dh;
        let in_proj = |t: usize| BatchStride { group: t * d, head: dh };
        let scores = BatchStride { group: heads * tq * tk, head: tq * tk };
        // (layout, (m, k, n), A placement + pitch, B …, C …, rows of A / B / C)
        let cases = [
            (Layout::NT, (tq, dh, tk), (in_proj(tq), d), (in_proj(tk), d), (scores, tk)),
            (Layout::NN, (tq, tk, dh), (scores, tk), (in_proj(tk), d), (in_proj(tq), d)),
            (Layout::TN, (tk, tq, dh), (scores, tk), (in_proj(tq), d), (in_proj(tk), d)),
        ];
        for (layout, (m, k, n), (a_at, lda), (b_at, ldb), (c_at, ldc)) in cases {
            let p = Product { layout, m, k, n, lda, ldb, ldc };
            let [a_span, b_span, c_span] = cover(&p);
            let last = |at: BatchStride| (groups - 1) * at.group + (heads - 1) * at.head;
            let a = randvec(last(a_at) + a_span, seed);
            let b = randvec(last(b_at) + b_span, seed + 8);
            let init = randvec(last(c_at) + c_span, seed + 9);
            let mut want = init.clone();
            for g in 0..groups {
                for h in 0..heads {
                    let at = |s: BatchStride| g * s.group + h * s.head;
                    reference_strided(&p, &a[at(a_at)..], &b[at(b_at)..], &mut want[at(c_at)..]);
                }
            }
            let mut got = init;
            kernels::gemm_batched(&p, groups, heads, &a, a_at, &b, b_at, &mut got, c_at);
            prop_assert_eq!(bits(&got), bits(&want), "{:?} x {}x{}", p, groups, heads);
        }
    }

    #[test]
    fn batched_matches_per_batch_reference(
        bsize in 1usize..4,
        m in dim(),
        k in dim(),
        n in dim(),
        seed in 0u64..1000,
    ) {
        let a = Tensor::from_vec(randvec(bsize * m * k, seed), &[bsize, m, k]);
        let b = Tensor::from_vec(randvec(bsize * k * n, seed + 4), &[bsize, k, n]);
        let c = a.bmm(&b);
        for bi in 0..bsize {
            let want = reference(
                Layout::NN,
                &a.data()[bi * m * k..(bi + 1) * m * k],
                &b.data()[bi * k * n..(bi + 1) * k * n],
                m, k, n,
            );
            prop_assert_eq!(bits(&c.data()[bi * m * n..(bi + 1) * m * n]), bits(&want));
        }
    }

    #[test]
    fn threaded_bit_identical_to_serial(threads in 2usize..5, seed in 0u64..200) {
        // Big enough to cross PARALLEL_MIN_FLOPS with several MC chunks,
        // and deliberately not multiples of MR/MC.
        let (m, k, n) = (2 * MC + 3, 65, 2 * NR + 7);
        let a = Tensor::from_vec(randvec(m * k, seed), &[m, k]);
        let b = Tensor::from_vec(randvec(k * n, seed + 5), &[k, n]);
        let serial = a.matmul(&b);
        let p = ThreadPool::new(threads);
        let threaded = pool::with_pool(&p, || a.matmul(&b));
        prop_assert_eq!(bits(threaded.data()), bits(serial.data()));
        prop_assert_eq!(
            bits(serial.data()),
            bits(&reference(Layout::NN, a.data(), b.data(), m, k, n))
        );
    }
}

#[test]
fn products_over_several_b_blocks_are_bit_exact_at_any_pool_width() {
    // `k·n` above one `B_BLOCK`: B is packed (or, for `A · Bᵀ` without a
    // pack, transposed) in several column blocks — a ragged last one, and
    // at `k = 8200` one panel per block whatever the tier's `nr`. Every
    // path, serial or spread over the pool, must still land on the one
    // full-depth chain per element.
    for (m, k, n) in [(MC + 3, 300, 250), (5, 8200, 20), (3, 2100, 70)] {
        assert!(k * n > kernels::B_BLOCK, "{m}x{k}x{n} fits one block");
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            let ((a_rows, a_cols), (b_rows, b_cols)) = stored(layout, m, k, n);
            let a = randvec(a_rows * a_cols, 41);
            let b = randvec(b_rows * b_cols, 43);
            let want = bits(&reference(layout, &a, &b, m, k, n));
            let entry = match layout {
                Layout::NN => kernels::gemm,
                Layout::NT => kernels::gemm_nt,
                Layout::TN => kernels::gemm_tn,
            };
            for threads in [1, 2, 3] {
                let mut c = vec![0.0f32; m * n];
                pool::with_pool(&ThreadPool::new(threads), || entry(&a, &b, &mut c, m, k, n));
                assert_eq!(bits(&c), want, "dispatched {layout:?} {m}x{k}x{n} at {threads}");
            }
            let mut c = vec![0.0f32; m * n];
            kernels::gemm_blocked(layout, &a, &b, &mut c, m, k, n);
            assert_eq!(bits(&c), want, "blocked {layout:?} {m}x{k}x{n}");
            let mut c = vec![0.0f32; m * n];
            kernels::gemm_no_pack(&Product::dense(layout, m, k, n), &a, &b, &mut c);
            assert_eq!(bits(&c), want, "no-pack {layout:?} {m}x{k}x{n}");
        }
    }
}

#[test]
fn large_head_strided_batch_is_bit_identical_at_any_pool_width() {
    // Heads big enough that each product takes the blocked kernel and the
    // batch crosses the parallel threshold: side-by-side C blocks written
    // from several threads must equal the serial run and the reference.
    let (groups, heads, t, dh) = (2usize, 4usize, 70usize, 40usize);
    let d = heads * dh;
    let in_proj = BatchStride { group: t * d, head: dh };
    let scores = BatchStride { group: heads * t * t, head: t * t };
    let p = Product { layout: Layout::NN, m: t, k: t, n: dh, lda: t, ldb: d, ldc: d };
    assert!(!kernels::no_pack_is_faster(p.layout, p.m, p.k, p.n), "meant for the blocked kernel");
    let a = randvec(groups * heads * t * t, 41);
    let b = randvec(groups * t * d, 42);
    let mut want = vec![0.0f32; groups * t * d];
    for g in 0..groups {
        for h in 0..heads {
            let at = |s: BatchStride| g * s.group + h * s.head;
            reference_strided(&p, &a[at(scores)..], &b[at(in_proj)..], &mut want[at(in_proj)..]);
        }
    }
    for threads in [1, 2, 4] {
        let pool = ThreadPool::new(threads);
        let mut got = vec![0.0f32; groups * t * d];
        pool::with_pool(&pool, || {
            kernels::gemm_batched(&p, groups, heads, &a, scores, &b, in_proj, &mut got, in_proj)
        });
        assert_eq!(bits(&got), bits(&want), "{threads} threads");
    }
}

#[test]
fn overlapping_batch_blocks_accumulate_serially() {
    // Every head writes the same C block: not a placement the parallel
    // path may take, and serially it is simply `+=` once per head.
    let (m, k, n) = (3usize, 5usize, 4usize);
    let p = Product::dense(Layout::NN, m, k, n);
    let stacked = |len: usize| BatchStride { group: 0, head: len };
    let same = BatchStride { group: 0, head: 0 };
    let (a, b) = (randvec(6 * m * k, 51), randvec(6 * k * n, 52));
    let mut want = vec![0.0f32; m * n];
    for h in 0..6 {
        reference_strided(&p, &a[h * m * k..], &b[h * k * n..], &mut want);
    }
    let mut got = vec![0.0f32; m * n];
    kernels::gemm_batched(&p, 1, 6, &a, stacked(m * k), &b, stacked(k * n), &mut got, same);
    assert_eq!(bits(&got), bits(&want));
}

#[test]
#[should_panic(expected = "does not cover its last matrix")]
fn batched_rejects_a_slice_shorter_than_its_last_matrix() {
    let p = Product::dense(Layout::NN, 2, 2, 2);
    let at = BatchStride { group: 4, head: 0 };
    let mut c = vec![0.0f32; 8];
    kernels::gemm_batched(&p, 2, 1, &[0.0; 8], at, &[0.0; 7], at, &mut c, at);
}

#[test]
fn degenerate_dims_zero_and_one() {
    // Every combination of m/k/n in {0, 1, 2}: k = 0 must leave C
    // untouched (C += empty sum), everything else must match the scalar
    // reference exactly.
    for m in 0..3usize {
        for k in 0..3usize {
            for n in 0..3usize {
                let a = randvec(m * k, 11);
                let b = randvec(k * n, 12);
                let mut c = vec![0.5f32; m * n];
                kernels::gemm(&a, &b, &mut c, m, k, n);
                let want: Vec<f32> =
                    reference(Layout::NN, &a, &b, m, k, n).iter().map(|v| v + 0.5).collect();
                assert_eq!(bits(&c), bits(&want), "{m}x{k}x{n}");
            }
        }
    }
}
