//! Multi-head attention (self- and cross-attention).
//!
//! Attention takes *two* inputs (queries and keys/values), so it does not
//! implement the single-input [`crate::Layer`] trait; the
//! [`crate::Transformer`] model composes it directly. The parameter
//! contract is the same, though: all weights are passed explicitly to both
//! passes, so asynchronous trainers can use different versions.

use rand::rngs::StdRng;

use pipemare_tensor::kernels::{self, BatchStride, Layout, Product};
use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::layer::WeightUnit;
use crate::linear::{add_bias_rows, add_column_sums};

/// Attention masking modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttnMask {
    /// No masking (full attention).
    None,
    /// Causal masking: position `i` may attend to positions `<= i`
    /// (requires equal query/key lengths).
    Causal,
    /// Per-batch-element key lengths: keys at positions `>= len[b]` are
    /// masked (padding).
    KeyLens(Vec<usize>),
    /// Causal *and* key-length masking.
    CausalKeyLens(Vec<usize>),
}

/// Multi-head scaled-dot-product attention with input/output projections.
///
/// Parameters are laid out as
/// `[Wq | bq | Wk | bk | Wv | bv | Wo | bo]`, each `W` of shape
/// `(dim, dim)` stored row-major as a `(in, out)` matmul operand.
#[derive(Clone, Copy, Debug)]
pub struct MultiHeadAttention {
    /// Model dimension (must be divisible by `heads`).
    pub dim: usize,
    /// Number of attention heads.
    pub heads: usize,
}

const MASK_NEG: f32 = -1e9;

impl MultiHeadAttention {
    /// Creates a multi-head attention module.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize) -> Self {
        assert_eq!(dim % heads, 0, "attention dim {dim} not divisible by {heads} heads");
        MultiHeadAttention { dim, heads }
    }

    /// Total parameter count: four projections with biases.
    pub fn param_len(&self) -> usize {
        4 * (self.dim * self.dim + self.dim)
    }

    /// Initializes parameters (Xavier weights, zero biases).
    pub fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let d = self.dim;
        let block = d * d + d;
        for p in 0..4 {
            let w = Tensor::xavier(&[d * d], d, d, rng);
            out[p * block..p * block + d * d].copy_from_slice(w.data());
            out[p * block + d * d..(p + 1) * block].fill(0.0);
        }
    }

    /// Weight units (one per projection).
    pub fn weight_units(&self) -> Vec<WeightUnit> {
        let d = self.dim;
        let block = d * d + d;
        ["wq", "wk", "wv", "wo"]
            .iter()
            .enumerate()
            .map(|(i, name)| WeightUnit { name: (*name).into(), offset: i * block, len: block })
            .collect()
    }

    fn proj<'p>(&self, params: &'p [f32], idx: usize) -> (&'p [f32], &'p [f32]) {
        let d = self.dim;
        let block = d * d + d;
        let base = idx * block;
        (&params[base..base + d * d], &params[base + d * d..base + block])
    }

    /// Projection `idx` of a flattened `(rows, dim)` input: the product
    /// runs on the parameter slice directly and the bias is added in
    /// place.
    fn project(&self, params: &[f32], idx: usize, x: &[f32], rows: usize) -> Vec<f32> {
        let d = self.dim;
        let (w, b) = self.proj(params, idx);
        let mut y = vec![0.0f32; rows * d];
        kernels::gemm(x, w, &mut y, rows, d, d);
        add_bias_rows(&mut y, b);
        y
    }

    /// Where head `h` of batch element `b` lies in a `(B·t, D)`
    /// projection: rows `b·t..`, columns `h·dh..`, row pitch `D`.
    fn heads_of(&self, t: usize) -> BatchStride {
        BatchStride { group: t * self.dim, head: self.dim / self.heads }
    }

    /// Where the `(tq, tk)` block of head `h` of batch element `b` lies
    /// in the `(B·H, tq, tk)` score buffer.
    fn scores_of(&self, tq: usize, tk: usize) -> BatchStride {
        BatchStride { group: self.heads * tq * tk, head: tq * tk }
    }

    /// One product per head over `groups` batch elements, every operand
    /// read and written where it lies.
    fn per_head(
        &self,
        groups: usize,
        layout: Layout,
        (m, k, n): (usize, usize, usize),
        (a, a_at, lda): (&[f32], BatchStride, usize),
        (b, b_at, ldb): (&[f32], BatchStride, usize),
        (c, c_at, ldc): (&mut [f32], BatchStride, usize),
    ) {
        let p = Product { layout, m, k, n, lda, ldb, ldc };
        kernels::gemm_batched(&p, groups, self.heads, a, a_at, b, b_at, c, c_at);
    }

    /// Turns raw scores into attention weights, one pass per row of the
    /// `(B·H, tq, tk)` buffer: `·scale`, mask, then the softmax of
    /// [`Tensor::softmax_last`] — the same expressions in the same
    /// element order, so a fully masked row still comes out uniform.
    fn softmax_rows(
        &self,
        scores: &mut [f32],
        mask: &AttnMask,
        batch: usize,
        tq: usize,
        tk: usize,
    ) {
        let scale = 1.0 / ((self.dim / self.heads) as f32).sqrt();
        let (causal, lens) = match mask {
            AttnMask::None => (false, None),
            AttnMask::Causal => (true, None),
            AttnMask::KeyLens(l) => (false, Some(l)),
            AttnMask::CausalKeyLens(l) => (true, Some(l)),
        };
        if causal {
            assert_eq!(tq, tk, "causal mask requires square attention");
        }
        if let Some(l) = lens {
            assert_eq!(l.len(), batch, "key-length mask: {} lens for batch {batch}", l.len());
        }
        for (r, row) in scores.chunks_exact_mut(tk).enumerate() {
            let (bi, i) = (r / (self.heads * tq), r % tq);
            // Keys `visible..` are masked.
            let visible = lens.map_or(tk, |l| l[bi]).min(if causal { i + 1 } else { tk });
            let mut m = f32::NEG_INFINITY;
            for (j, x) in row.iter_mut().enumerate() {
                *x = if j < visible { *x * scale } else { MASK_NEG };
                m = m.max(*x);
            }
            let mut z = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
    }

    /// Forward pass.
    ///
    /// `query`: `(B, Tq, D)`; `kv`: `(B, Tk, D)` (the same tensor as
    /// `query` for self-attention). Returns `(output (B, Tq, D), cache)`.
    ///
    /// Q, K and V stay in their `(B·T, D)` projection outputs: head `h`
    /// of batch element `b` is a column block of them, multiplied in
    /// place by one batched call per product, and the context lands in
    /// `(B·Tq, D)` directly. The cache holds Q, K, V, the attention
    /// weights `(B·H, Tq, Tk)`, the context and then the inputs, each
    /// once: one copy when `query` and `kv` are the same tensor.
    pub fn forward(
        &self,
        params: &[f32],
        query: &Tensor,
        kv: &Tensor,
        mask: &AttnMask,
    ) -> (Tensor, Cache) {
        let (y, mut cache) = self.forward_without_inputs(params, query, kv, mask);
        cache.tensors.push(query.clone());
        if !std::ptr::eq(query, kv) {
            cache.tensors.push(kv.clone());
        }
        (y, cache)
    }

    /// [`Self::forward`] without the inputs in the cache, for a caller
    /// that keeps them elsewhere (a model's cache, or rebuilt from a norm
    /// layer's) and hands them to [`Self::backward_with_inputs`].
    pub(crate) fn forward_without_inputs(
        &self,
        params: &[f32],
        query: &Tensor,
        kv: &Tensor,
        mask: &AttnMask,
    ) -> (Tensor, Cache) {
        assert_eq!(query.ndim(), 3, "attention query must be (B,T,D)");
        assert_eq!(kv.ndim(), 3, "attention kv must be (B,T,D)");
        let (b, tq, d) = (query.shape()[0], query.shape()[1], query.shape()[2]);
        let tk = kv.shape()[1];
        assert_eq!(d, self.dim, "attention dim mismatch");
        assert_eq!(kv.shape()[0], b, "attention batch mismatch");
        assert_eq!(kv.shape()[2], d, "attention kv dim mismatch");
        let (h, dh) = (self.heads, d / self.heads);

        let q = self.project(params, 0, query.data(), b * tq);
        let k = self.project(params, 1, kv.data(), b * tk);
        let v = self.project(params, 2, kv.data(), b * tk);

        // scores = q · kᵀ, then weights in place.
        let mut a = vec![0.0f32; b * h * tq * tk];
        self.per_head(
            b,
            Layout::NT,
            (tq, dh, tk),
            (&q, self.heads_of(tq), d),
            (&k, self.heads_of(tk), d),
            (&mut a, self.scores_of(tq, tk), tk),
        );
        self.softmax_rows(&mut a, mask, b, tq, tk);
        // ctx = a · v
        let mut ctx = vec![0.0f32; b * tq * d];
        self.per_head(
            b,
            Layout::NN,
            (tq, tk, dh),
            (&a, self.scores_of(tq, tk), tk),
            (&v, self.heads_of(tk), d),
            (&mut ctx, self.heads_of(tq), d),
        );
        let y = Tensor::from_vec(self.project(params, 3, &ctx, b * tq), &[b, tq, d]);

        let mut cache = Cache::with_tensors(vec![
            Tensor::from_vec(q, &[b * tq, d]),
            Tensor::from_vec(k, &[b * tk, d]),
            Tensor::from_vec(v, &[b * tk, d]),
            Tensor::from_vec(a, &[b * h, tq, tk]),
            Tensor::from_vec(ctx, &[b * tq, d]),
        ]);
        cache.indices = vec![b, tq, tk];
        (y, cache)
    }

    /// Backward of projection `idx`: `dW += inputᵀ · dproj` and
    /// `db += Σ_rows dproj` straight into `grads`, and
    /// `dx += dproj · Wᵀ`.
    fn back_project(
        &self,
        params: &[f32],
        idx: usize,
        dproj: &[f32],
        input: &[f32],
        grads: &mut [f32],
        dx: &mut [f32],
    ) {
        let d = self.dim;
        let block = d * d + d;
        let rows = dproj.len() / d;
        let (w, _) = self.proj(params, idx);
        let (dw, db) = grads[idx * block..(idx + 1) * block].split_at_mut(d * d);
        kernels::gemm_tn(input, dproj, dw, d, rows, d);
        add_column_sums(db, dproj);
        kernels::gemm_nt(dproj, w, dx, rows, d, d);
    }

    /// Backward pass into a fresh gradient vector: [`Self::backward_into`]
    /// for callers that want the layer's gradient on its own (tests,
    /// per-layer timing). Returns `(dquery, dkv, dparams)`.
    pub fn backward(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let mut grads = vec![0.0f32; self.param_len()];
        let (dquery, dkv) = self.backward_into(params, cache, dy, &mut grads);
        (dquery, dkv, grads)
    }

    /// Backward pass: writes the parameter gradient into `grads`
    /// (`param_len()` long, zeroed on entry — a slice of the model's
    /// gradient) and returns `(dquery, dkv)`. For self-attention, the
    /// caller adds `dquery + dkv`. Each intermediate gradient is freed
    /// once the products that read it are done.
    pub fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> (Tensor, Tensor) {
        let inputs = &cache.tensors[5..];
        let (query, kv) = (&inputs[0], &inputs[inputs.len() - 1]);
        self.backward_with_inputs(params, cache, (query, kv), dy, grads)
    }

    /// [`Self::backward_into`] for a cache from
    /// [`Self::forward_without_inputs`]: the caller hands in the forward
    /// pass's `query` and `kv`, bit for bit the tensors it ran on.
    pub(crate) fn backward_with_inputs(
        &self,
        params: &[f32],
        cache: &Cache,
        (query, kv): (&Tensor, &Tensor),
        dy: &Tensor,
        grads: &mut [f32],
    ) -> (Tensor, Tensor) {
        assert_eq!(grads.len(), self.param_len(), "attention grads must be the layer's own");
        let d = self.dim;
        let (b, tq, tk) = (cache.indices[0], cache.indices[1], cache.indices[2]);
        assert_eq!((query.len(), kv.len()), (b * tq * d, b * tk * d), "attention inputs");
        let (h, dh) = (self.heads, d / self.heads);
        let scale = 1.0 / (dh as f32).sqrt();
        let (q2, kv2) = (query.data(), kv.data());
        let [q, k, v, a, ctx] = std::array::from_fn(|i| cache.tensor(i).data());

        // Output projection.
        let mut dctx = vec![0.0f32; b * tq * d];
        self.back_project(params, 3, dy.data(), ctx, grads, &mut dctx);

        // ctx = a · v: da = dctx · vᵀ (into the buffer that becomes ds),
        // dv = aᵀ · dctx.
        let mut ds = vec![0.0f32; b * h * tq * tk];
        self.per_head(
            b,
            Layout::NT,
            (tq, dh, tk),
            (&dctx, self.heads_of(tq), d),
            (v, self.heads_of(tk), d),
            (&mut ds, self.scores_of(tq, tk), tk),
        );
        let mut dv = vec![0.0f32; b * tk * d];
        self.per_head(
            b,
            Layout::TN,
            (tk, tq, dh),
            (a, self.scores_of(tq, tk), tk),
            (&dctx, self.heads_of(tq), d),
            (&mut dv, self.heads_of(tk), d),
        );
        drop(dctx);

        // Softmax backward per attention row, in place over da, with the
        // score scale folded in: masked positions have a = 0, so their ds
        // is automatically 0.
        for (a_row, d_row) in a.chunks_exact(tk).zip(ds.chunks_exact_mut(tk)) {
            let dot: f32 = a_row.iter().zip(d_row.iter()).map(|(&x, &y)| x * y).sum();
            for (g, &w) in d_row.iter_mut().zip(a_row) {
                *g = (w * (*g - dot)) * scale;
            }
        }

        // scores = q · kᵀ: dq = ds · k, dk = dsᵀ · q.
        let mut dq = vec![0.0f32; b * tq * d];
        self.per_head(
            b,
            Layout::NN,
            (tq, tk, dh),
            (&ds, self.scores_of(tq, tk), tk),
            (k, self.heads_of(tk), d),
            (&mut dq, self.heads_of(tq), d),
        );
        let mut dk = vec![0.0f32; b * tk * d];
        self.per_head(
            b,
            Layout::TN,
            (tk, tq, dh),
            (&ds, self.scores_of(tq, tk), tk),
            (q, self.heads_of(tq), d),
            (&mut dk, self.heads_of(tk), d),
        );
        drop(ds);

        // Back through the input projections; the key and value paths
        // accumulate into the one dkv buffer, key first.
        let mut dquery = vec![0.0f32; b * tq * d];
        self.back_project(params, 0, &dq, q2, grads, &mut dquery);
        drop(dq);
        let mut dkv = vec![0.0f32; b * tk * d];
        self.back_project(params, 1, &dk, kv2, grads, &mut dkv);
        drop(dk);
        self.back_project(params, 2, &dv, kv2, grads, &mut dkv);
        (Tensor::from_vec(dquery, &[b, tq, d]), Tensor::from_vec(dkv, &[b, tk, d]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn_gradient;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn init(mha: &MultiHeadAttention, seed: u64) -> (Vec<f32>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = vec![0.0f32; mha.param_len()];
        mha.init_params(&mut p, &mut rng);
        (p, rng)
    }

    #[test]
    fn output_shape_self_attention() {
        let mha = MultiHeadAttention::new(8, 2);
        let (p, mut rng) = init(&mha, 1);
        let x = Tensor::randn(&[2, 5, 8], &mut rng);
        let (y, _) = mha.forward(&p, &x, &x, &AttnMask::None);
        assert_eq!(y.shape(), &[2, 5, 8]);
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With the output projection set to identity and Wv to identity,
        // each output position lies in the convex hull of the values.
        let mha = MultiHeadAttention::new(4, 1);
        let mut p = vec![0.0f32; mha.param_len()];
        // Wq = Wk = 0 (uniform attention), Wv = I, Wo = I.
        let d = 4;
        let block = d * d + d;
        for i in 0..d {
            p[2 * block + i * d + i] = 1.0; // Wv
            p[3 * block + i * d + i] = 1.0; // Wo
        }
        let x = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
            &[1, 3, 4],
        );
        let (y, _) = mha.forward(&p, &x, &x, &AttnMask::None);
        // Uniform attention: every output row is the mean of the values.
        for ti in 0..3 {
            for di in 0..3 {
                assert!((y.at(&[0, ti, di]) - 1.0 / 3.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mha = MultiHeadAttention::new(4, 2);
        let (p, mut rng) = init(&mha, 2);
        let x = Tensor::randn(&[1, 4, 4], &mut rng);
        let (y1, _) = mha.forward(&p, &x, &x, &AttnMask::Causal);
        // Changing a future token must not change earlier outputs.
        let mut x2 = x.clone();
        for di in 0..4 {
            x2.data_mut()[3 * 4 + di] += 1.0; // perturb position 3
        }
        let (y2, _) = mha.forward(&p, &x2, &x2, &AttnMask::Causal);
        for ti in 0..3 {
            for di in 0..4 {
                assert!(
                    (y1.at(&[0, ti, di]) - y2.at(&[0, ti, di])).abs() < 1e-6,
                    "position {ti} changed by a future perturbation"
                );
            }
        }
    }

    #[test]
    fn key_len_mask_ignores_padding() {
        let mha = MultiHeadAttention::new(4, 1);
        let (p, mut rng) = init(&mha, 3);
        let kv = Tensor::randn(&[1, 5, 4], &mut rng);
        let q = Tensor::randn(&[1, 2, 4], &mut rng);
        let mask = AttnMask::KeyLens(vec![3]);
        let (y1, _) = mha.forward(&p, &q, &kv, &mask);
        // Changing masked keys (positions 3, 4) must not change outputs.
        let mut kv2 = kv.clone();
        for t in 3..5 {
            for di in 0..4 {
                kv2.data_mut()[t * 4 + di] = 99.0;
            }
        }
        let (y2, _) = mha.forward(&p, &q, &kv2, &mask);
        pipemare_conv_oracle::assert_close(y1.data(), y2.data(), 1e-5, 1e-5);
    }

    #[test]
    fn param_gradcheck_self_attention() {
        let mha = MultiHeadAttention::new(4, 2);
        let (p, mut rng) = init(&mha, 4);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        let (y, cache) = mha.forward(&p, &x, &x, &AttnMask::Causal);
        let (_, _, grads) = mha.backward(&p, &cache, &y);
        check_scalar_fn_gradient(
            &mut |params| {
                let (y, _) = mha.forward(params, &x, &x, &AttnMask::Causal);
                0.5 * y.sq_norm()
            },
            &p,
            &grads,
            1e-2,
            5e-2,
            24,
        );
    }

    #[test]
    fn input_gradcheck_cross_attention() {
        let mha = MultiHeadAttention::new(4, 1);
        let (p, mut rng) = init(&mha, 5);
        let q = Tensor::randn(&[1, 2, 4], &mut rng);
        let kv = Tensor::randn(&[1, 3, 4], &mut rng);
        let (y, cache) = mha.forward(&p, &q, &kv, &AttnMask::None);
        let (dq, dkv, _) = mha.backward(&p, &cache, &y);
        // Check dquery by finite differences.
        let mut loss_q = |qd: &[f32]| {
            let qt = Tensor::from_vec(qd.to_vec(), &[1, 2, 4]);
            let (y, _) = mha.forward(&p, &qt, &kv, &AttnMask::None);
            0.5 * y.sq_norm()
        };
        check_scalar_fn_gradient(&mut loss_q, q.data(), dq.data(), 1e-2, 5e-2, 8);
        // Check dkv by finite differences.
        let mut loss_kv = |kd: &[f32]| {
            let kt = Tensor::from_vec(kd.to_vec(), &[1, 3, 4]);
            let (y, _) = mha.forward(&p, &q, &kt, &AttnMask::None);
            0.5 * y.sq_norm()
        };
        check_scalar_fn_gradient(&mut loss_kv, kv.data(), dkv.data(), 1e-2, 5e-2, 12);
    }

    /// The attention this module had before heads became column blocks,
    /// kept as the oracle the head-strided passes must equal bit for
    /// bit: heads split and merged by `permute` copies, the bias added as
    /// a broadcast tensor, `scale` → mask → `softmax_last` as three passes
    /// over separately allocated score tensors, one `bmm` per product.
    mod oracle {
        use super::super::{AttnMask, MultiHeadAttention, MASK_NEG};
        use pipemare_tensor::Tensor;

        fn apply_proj(mha: &MultiHeadAttention, params: &[f32], idx: usize, x2: &Tensor) -> Tensor {
            let d = mha.dim;
            let (w, b) = mha.proj(params, idx);
            x2.matmul(&Tensor::from_vec(w.to_vec(), &[d, d]))
                .add(&Tensor::from_vec(b.to_vec(), &[d]))
        }

        fn split_heads(mha: &MultiHeadAttention, x: &Tensor) -> Tensor {
            let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
            let h = mha.heads;
            x.reshape(&[b, t, h, d / h]).permute(&[0, 2, 1, 3]).reshape(&[b * h, t, d / h])
        }

        fn merge_heads(mha: &MultiHeadAttention, x: &Tensor, batch: usize) -> Tensor {
            let (h, t, dh) = (mha.heads, x.shape()[1], x.shape()[2]);
            x.reshape(&[batch, h, t, dh]).permute(&[0, 2, 1, 3]).reshape(&[batch, t, h * dh])
        }

        fn apply_mask(mha: &MultiHeadAttention, scores: &mut Tensor, mask: &AttnMask) {
            let (bh, tq, tk) = (scores.shape()[0], scores.shape()[1], scores.shape()[2]);
            let (causal, lens) = match mask {
                AttnMask::None => return,
                AttnMask::Causal => (true, None),
                AttnMask::KeyLens(l) => (false, Some(l)),
                AttnMask::CausalKeyLens(l) => (true, Some(l)),
            };
            for bhi in 0..bh {
                for i in 0..tq {
                    for j in 0..tk {
                        if (causal && j > i) || lens.is_some_and(|l| j >= l[bhi / mha.heads]) {
                            scores.data_mut()[(bhi * tq + i) * tk + j] = MASK_NEG;
                        }
                    }
                }
            }
        }

        /// Returns `(y, [q2, kv2, q, k, v, a, ctx2])`.
        pub fn forward(
            mha: &MultiHeadAttention,
            params: &[f32],
            query: &Tensor,
            kv: &Tensor,
            mask: &AttnMask,
        ) -> (Tensor, [Tensor; 7]) {
            let (b, tq, d) = (query.shape()[0], query.shape()[1], query.shape()[2]);
            let tk = kv.shape()[1];
            let scale = 1.0 / ((d / mha.heads) as f32).sqrt();
            let q2 = query.reshape(&[b * tq, d]);
            let kv2 = kv.reshape(&[b * tk, d]);
            let q = split_heads(mha, &apply_proj(mha, params, 0, &q2).reshape(&[b, tq, d]));
            let k = split_heads(mha, &apply_proj(mha, params, 1, &kv2).reshape(&[b, tk, d]));
            let v = split_heads(mha, &apply_proj(mha, params, 2, &kv2).reshape(&[b, tk, d]));
            let mut scores = q.bmm_nt(&k).scale(scale);
            apply_mask(mha, &mut scores, mask);
            let a = scores.softmax_last();
            let ctx2 = merge_heads(mha, &a.bmm(&v), b).reshape(&[b * tq, d]);
            let y = apply_proj(mha, params, 3, &ctx2).reshape(&[b, tq, d]);
            (y, [q2, kv2, q, k, v, a, ctx2])
        }

        /// Returns `(dquery, dkv, dparams)`.
        pub fn backward(
            mha: &MultiHeadAttention,
            params: &[f32],
            (b, tq, tk): (usize, usize, usize),
            cache: &[Tensor; 7],
            dy: &Tensor,
        ) -> (Tensor, Tensor, Vec<f32>) {
            let d = mha.dim;
            let scale = 1.0 / ((d / mha.heads) as f32).sqrt();
            let [q2, kv2, q, k, v, a, ctx2] = cache;
            let mut grads = vec![0.0f32; mha.param_len()];
            let block = d * d + d;
            let weight = |idx: usize| Tensor::from_vec(mha.proj(params, idx).0.to_vec(), &[d, d]);

            let dy2 = dy.reshape(&[b * tq, d]);
            let dctx2 = dy2.matmul_nt(&weight(3));
            grads[3 * block..3 * block + d * d].copy_from_slice(ctx2.matmul_tn(&dy2).data());
            grads[3 * block + d * d..4 * block].copy_from_slice(dy2.sum_axis(0).data());
            let dctx = split_heads(mha, &dctx2.reshape(&[b, tq, d]));
            let da = dctx.bmm_nt(v);
            let dv = a.permute(&[0, 2, 1]).bmm(&dctx);
            let mut ds = Tensor::zeros(&[b * mha.heads, tq, tk]);
            for r in 0..b * mha.heads * tq {
                let a_row = &a.data()[r * tk..(r + 1) * tk];
                let da_row = &da.data()[r * tk..(r + 1) * tk];
                let dot: f32 = a_row.iter().zip(da_row.iter()).map(|(&x, &y)| x * y).sum();
                for j in 0..tk {
                    ds.data_mut()[r * tk + j] = a_row[j] * (da_row[j] - dot);
                }
            }
            let ds = ds.scale(scale);
            let dq2 = merge_heads(mha, &ds.bmm(k), b).reshape(&[b * tq, d]);
            let dk2 = merge_heads(mha, &ds.permute(&[0, 2, 1]).bmm(q), b).reshape(&[b * tk, d]);
            let dv2 = merge_heads(mha, &dv, b).reshape(&[b * tk, d]);
            let mut back_proj = |idx: usize, dproj: &Tensor, input: &Tensor| {
                grads[idx * block..idx * block + d * d]
                    .copy_from_slice(input.matmul_tn(dproj).data());
                let db = dproj.sum_axis(0);
                for (g, &x) in
                    grads[idx * block + d * d..(idx + 1) * block].iter_mut().zip(db.data())
                {
                    *g += x;
                }
                dproj.matmul_nt(&weight(idx))
            };
            let dquery2 = back_proj(0, &dq2, q2);
            let mut dkv2 = back_proj(1, &dk2, kv2);
            dkv2.axpy(1.0, &back_proj(2, &dv2, kv2));
            (dquery2.reshape(&[b, tq, d]), dkv2.reshape(&[b, tk, d]), grads)
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// How a case hands the attention its inputs.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Inputs {
        /// Cross-attention through `forward`: two tensors, each cached.
        Two,
        /// Self-attention through `forward`: `query` and `kv` are one
        /// tensor, cached once.
        One,
        /// `forward_without_inputs`: the caller keeps both and hands them
        /// to `backward_with_inputs`.
        Supplied,
    }

    /// Runs both implementations on one case and compares every output
    /// and every cached tensor the backward reads, bit for bit.
    fn assert_equals_oracle(
        heads: usize,
        (b, tq, tk): (usize, usize, usize),
        mask: &AttnMask,
        seed: u64,
        inputs: Inputs,
    ) {
        let mha = MultiHeadAttention::new(8 * heads.max(2), heads);
        let d = mha.dim;
        let (mut p, mut rng) = init(&mha, seed);
        // Non-zero biases, so the bias adds and their gradients count.
        for v in p.iter_mut() {
            *v += 0.01;
        }
        let query = Tensor::randn(&[b, tq, d], &mut rng);
        let other = Tensor::randn(&[b, tk, d], &mut rng);
        let dy = Tensor::randn(&[b, tq, d], &mut rng);
        let kv = if inputs == Inputs::One { &query } else { &other };

        let (want_y, want_cache) = oracle::forward(&mha, &p, &query, kv, mask);
        let (y, cache) = match inputs {
            Inputs::Supplied => mha.forward_without_inputs(&p, &query, kv, mask),
            Inputs::Two | Inputs::One => mha.forward(&p, &query, kv, mask),
        };
        assert_eq!(y.shape(), want_y.shape());
        assert_eq!(bits(y.data()), bits(want_y.data()), "y");
        assert_eq!(bits(cache.tensor(3).data()), bits(want_cache[5].data()), "attention weights");
        // The oracle keeps both inputs; each is kept here at most once.
        let inputs_kept = match inputs {
            Inputs::Two => query.len() + kv.len(),
            Inputs::One => query.len(),
            Inputs::Supplied => 0,
        };
        assert_eq!(
            cache.activation_bytes(),
            want_cache[2..].iter().map(|t| 4 * t.len()).sum::<usize>() + 4 * inputs_kept,
            "cache bytes"
        );

        let (want_dq, want_dkv, want_g) = oracle::backward(&mha, &p, (b, tq, tk), &want_cache, &dy);
        let (dq, dkv, g) = match inputs {
            Inputs::Supplied => {
                let mut g = vec![0.0f32; mha.param_len()];
                let (dq, dkv) = mha.backward_with_inputs(&p, &cache, (&query, kv), &dy, &mut g);
                (dq, dkv, g)
            }
            Inputs::Two | Inputs::One => mha.backward(&p, &cache, &dy),
        };
        assert_eq!(dq.shape(), want_dq.shape());
        assert_eq!(dkv.shape(), want_dkv.shape());
        assert_eq!(bits(dq.data()), bits(want_dq.data()), "dquery");
        assert_eq!(bits(dkv.data()), bits(want_dkv.data()), "dkv");
        let block = d * d + d;
        for (idx, name) in ["wq", "wk", "wv", "wo"].iter().enumerate() {
            let range = idx * block..(idx + 1) * block;
            assert_eq!(bits(&g[range.clone()]), bits(&want_g[range]), "gradient block {name}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn forward_and_backward_equal_the_permuting_oracle_bit_for_bit(
            heads in (0usize..3).prop_map(|i| [1, 2, 4][i]),
            b in 1usize..4,
            tq in 1usize..8,
            tk in 1usize..8,
            mask_kind in 0usize..4,
            inputs in (0usize..3).prop_map(|i| [Inputs::Two, Inputs::One, Inputs::Supplied][i]),
            lens_seed in 0usize..1000,
            seed in 0u64..10_000,
        ) {
            // Self-attention attends over its own sequence.
            let tk = if inputs == Inputs::One { tq } else { tk };
            // Key lengths in 0..=tk: a zero hides every key of that batch
            // element, so its rows come out uniform.
            let lens: Vec<usize> = (0..b).map(|i| (lens_seed / (i + 1) + i) % (tk + 1)).collect();
            let (mask, tk) = match mask_kind {
                0 => (AttnMask::None, tk),
                1 => (AttnMask::Causal, tq),
                2 => (AttnMask::KeyLens(lens), tk),
                _ => (AttnMask::CausalKeyLens(lens.iter().map(|&l| l.min(tq)).collect()), tq),
            };
            assert_equals_oracle(heads, (b, tq, tk), &mask, seed, inputs);
        }
    }

    #[test]
    fn fully_masked_key_rows_equal_the_oracle() {
        // Batch element 1 sees no key at all; element 0 sees one.
        let key_lens = AttnMask::KeyLens(vec![1, 0]);
        assert_equals_oracle(2, (2, 3, 5), &key_lens, 11, Inputs::Two);
        assert_equals_oracle(2, (2, 3, 5), &key_lens, 11, Inputs::Supplied);
        let causal = AttnMask::CausalKeyLens(vec![0, 4, 2]);
        assert_equals_oracle(4, (3, 4, 4), &causal, 12, Inputs::Two);
        assert_equals_oracle(4, (3, 4, 4), &causal, 12, Inputs::One);
    }

    #[test]
    fn weight_units_cover_params() {
        let mha = MultiHeadAttention::new(8, 2);
        crate::layer::validate_units(&mha.weight_units(), mha.param_len()).unwrap();
    }
}
