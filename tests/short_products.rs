//! Short products — a few rows against a large B — on both sides of the
//! GEMM dispatch line: the dispatched entry points, the no-pack kernel,
//! the blocked kernel and a scalar reference give the same bits, over
//! operands inside wider matrices and sprinkled with NaN, signed zeros,
//! subnormals and infinities. At the model level, a row served alone
//! (no-pack products) equals the same row inside a 16-row batch (blocked
//! products).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare::nn::{Mlp, TrainModel};
use pipemare::tensor::kernels::{self, BatchStride, Layout, Product};
use pipemare::tensor::Tensor;

const ROWS: [usize; 8] = [1, 2, 3, 4, 8, 12, 15, 16];
/// A served request's stages (64×512, 512×512, 512×10), a square B past
/// the old line (128×128) and widemlp's first layer (640×1024).
const DEPTH_COLS: [(usize, usize); 5] = [(64, 512), (512, 512), (512, 10), (128, 128), (640, 1024)];

/// Stored `(rows, cols)` of A and of B.
fn stored(p: &Product) -> ((usize, usize), (usize, usize)) {
    match p.layout {
        Layout::NN => ((p.m, p.k), (p.k, p.n)),
        Layout::NT => ((p.m, p.k), (p.n, p.k)),
        Layout::TN => ((p.k, p.m), (p.k, p.n)),
    }
}

/// Copies the `rows × cols` block at pitch `ld` out to a dense matrix.
fn dense(x: &[f32], rows: usize, cols: usize, ld: usize) -> Vec<f32> {
    (0..rows).flat_map(|r| x[r * ld..r * ld + cols].iter().copied()).collect()
}

/// `op(B)` as a dense `k × n` matrix.
fn op_b(p: &Product, b: &[f32]) -> Vec<f32> {
    let at = |q: usize, j: usize| match p.layout {
        Layout::NT => b[j * p.ldb + q],
        _ => b[q * p.ldb + j],
    };
    (0..p.k).flat_map(|q| (0..p.n).map(move |j| at(q, j))).collect()
}

/// `C += op(A) · op(B)` at the leading dimensions of `p`, given `op(B)`
/// dense: per element an FMA chain over the depth ascending from zero,
/// then one add into C.
fn reference(p: &Product, a: &[f32], op_b: &[f32], c: &mut [f32]) {
    let mut acc = vec![0.0f32; p.n];
    for i in 0..p.m {
        acc.fill(0.0);
        for (q, b_row) in op_b.chunks_exact(p.n).enumerate() {
            let x = match p.layout {
                Layout::TN => a[q * p.lda + i],
                _ => a[i * p.lda + q],
            };
            for (slot, &y) in acc.iter_mut().zip(b_row) {
                *slot = x.mul_add(y, *slot);
            }
        }
        for (c_ij, &v) in c[i * p.ldc..i * p.ldc + p.n].iter_mut().zip(&acc) {
            *c_ij += v;
        }
    }
}

/// Bit patterns with every NaN folded onto one: which payload survives
/// when two NaNs meet is the instruction's operand order, which no kernel
/// promises.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Random values with one in sixteen a signed zero, four subnormals
/// and `loud` NaNs or infinities: few enough that most rows and columns
/// of a product stay finite, and that the microcode assists subnormals
/// take stay few.
fn operand(len: usize, loud: usize, rng: &mut StdRng) -> Vec<f32> {
    const QUIET: [f32; 2] = [1.0e-40, -1.0e-41];
    const LOUD: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut x: Vec<f32> = (0..len)
        .map(|_| match rng.gen_range(0..32) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen_range(-2.0..2.0),
        })
        .collect();
    for _ in 0..4 {
        x[rng.gen_range(0..len)] = QUIET[rng.gen_range(0..QUIET.len())];
    }
    for _ in 0..loud {
        x[rng.gen_range(0..len)] = LOUD[rng.gen_range(0..LOUD.len())];
    }
    x
}

#[test]
fn short_products_agree_bit_for_bit_on_every_path() {
    let mut rng = StdRng::seed_from_u64(32);
    for layout in [Layout::NN, Layout::NT, Layout::TN] {
        for (k, n) in DEPTH_COLS {
            // One B per shape, shared by every row count.
            let (b_rows, b_cols) = stored(&Product::dense(layout, 1, k, n)).1;
            let ldb = b_cols + rng.gen_range(1usize..4);
            let b = operand((b_rows - 1) * ldb + b_cols, 4, &mut rng);
            let b_dense = dense(&b, b_rows, b_cols, ldb);
            let b_op = op_b(&Product { ldb, ..Product::dense(layout, 1, k, n) }, &b);
            for m in ROWS {
                let dense_p = Product::dense(layout, m, k, n);
                let ((a_rows, a_cols), _) = stored(&dense_p);
                let p = Product {
                    lda: a_cols + rng.gen_range(1usize..4),
                    ldb,
                    ldc: n + rng.gen_range(1usize..4),
                    ..dense_p
                };
                let a = operand((a_rows - 1) * p.lda + a_cols, m / 4, &mut rng);
                let mut init = operand((m - 1) * p.ldc + n, 1, &mut rng);
                for c in init.iter_mut().step_by(5) {
                    *c = -0.0;
                }
                let mut want = init.clone();
                reference(&p, &a, &b_op, &mut want);
                let case = format!("{layout:?} {m}x{k}x{n}");

                // The padded operands, where they lie.
                let mut no_pack = init.clone();
                kernels::gemm_no_pack(&p, &a, &b, &mut no_pack);
                assert_eq!(bits(&no_pack), bits(&want), "no-pack {case}");
                let mut dispatched = init.clone();
                let one = |len: usize| BatchStride { group: len, head: 0 };
                let (a_len, b_len, c_len) = (a.len(), b.len(), init.len());
                kernels::gemm_batched(
                    &p,
                    1,
                    1,
                    &a,
                    one(a_len),
                    &b,
                    one(b_len),
                    &mut dispatched,
                    one(c_len),
                );
                assert_eq!(bits(&dispatched), bits(&want), "dispatched, padded {case}");

                // The same product over dense copies.
                let a = dense(&a, a_rows, a_cols, p.lda);
                let want = dense(&want, m, n, p.ldc);
                let init = dense(&init, m, n, p.ldc);
                let mut blocked = init.clone();
                kernels::gemm_blocked(layout, &a, &b_dense, &mut blocked, m, k, n);
                assert_eq!(bits(&blocked), bits(&want), "blocked {case}");
                let mut entry = init;
                match layout {
                    Layout::NN => kernels::gemm(&a, &b_dense, &mut entry, m, k, n),
                    Layout::NT => kernels::gemm_nt(&a, &b_dense, &mut entry, m, k, n),
                    Layout::TN => kernels::gemm_tn(&a, &b_dense, &mut entry, m, k, n),
                }
                assert_eq!(bits(&entry), bits(&want), "dispatched, dense {case}");
            }
        }
    }
}

#[test]
fn a_batch_row_equals_the_same_row_served_alone() {
    let model = Mlp::new(&[64, 512, 512, 10]);
    let mut rng = StdRng::seed_from_u64(33);
    let mut params = vec![0.0; TrainModel::param_len(&model)];
    TrainModel::init_params(&model, &mut params, &mut rng);
    let x = Tensor::randn(&[16, 64], &mut rng);
    assert!(!kernels::no_pack_is_faster(Layout::NN, 16, 512, 512), "the batch is blocked");
    assert!(kernels::no_pack_is_faster(Layout::NN, 1, 512, 512), "a lone row is not");
    let batch = model.logits(&params, &x);
    for r in 0..16 {
        let row = Tensor::from_vec(x.data()[r * 64..(r + 1) * 64].to_vec(), &[1, 64]);
        let alone = model.logits(&params, &row);
        assert_eq!(bits(alone.data()), bits(&batch.data()[r * 10..(r + 1) * 10]), "row {r}");
    }
}

#[test]
fn widemlp_microbatch_stays_blocked() {
    // 16×640×1024 is widemlp's microbatch: the blocked kernel takes about
    // half the no-pack kernel's time there.
    for layout in [Layout::NN, Layout::NT, Layout::TN] {
        assert!(!kernels::no_pack_is_faster(layout, 16, 640, 1024), "{layout:?}");
    }
}
