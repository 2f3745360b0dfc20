//! Matrix multiplication: 2-D and batched 3-D, with transposed variants.
//!
//! All products route through [`crate::kernels`], which dispatches
//! between a no-pack kernel (small products), a cache-blocked
//! register-tiled kernel, and a pool-parallel blocked kernel (large
//! sizes) — all three accumulate each output element as the same
//! p-increasing FMA chain, so they are bit-identical for the same
//! operands at any pool width.

use crate::kernels::{self, BatchStride, Layout, Product};
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two 2-D tensors: `(m×k) @ (k×n) -> (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul: lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(other.ndim(), 2, "matmul: rhs must be 2-D, got {:?}", other.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul: inner dims differ: {:?} @ {:?}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[m, n]);
        kernels::gemm(&self.data, &other.data, &mut out.data, m, k, n);
        out
    }

    /// `self @ other^T` for 2-D tensors: `(m×k) @ (n×k)^T -> (m×n)`.
    ///
    /// Avoids materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_nt: lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_nt: rhs must be 2-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_nt: inner dims differ: {:?} @ {:?}^T",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(&[m, n]);
        kernels::gemm_nt(&self.data, &other.data, &mut out.data, m, k, n);
        out
    }

    /// `self^T @ other` for 2-D tensors: `(k×m)^T @ (k×n) -> (m×n)`.
    ///
    /// Avoids materializing the transpose. This is the shape of the
    /// weight-gradient product `x^T @ dy`.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_tn: lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_tn: rhs must be 2-D");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_tn: inner dims differ: {:?}^T @ {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(&[m, n]);
        kernels::gemm_tn(&self.data, &other.data, &mut out.data, m, k, n);
        out
    }

    /// Batched matrix product of two 3-D tensors:
    /// `(b×m×k) @ (b×k×n) -> (b×m×n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch, or inner-dimension mismatch.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm: lhs must be 3-D, got {:?}", self.shape());
        assert_eq!(other.ndim(), 3, "bmm: rhs must be 3-D, got {:?}", other.shape());
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (other.shape()[0], other.shape()[1], other.shape()[2]);
        assert_eq!(b, b2, "bmm: batch dims differ: {b} vs {b2}");
        assert_eq!(k, k2, "bmm: inner dims differ: {:?} @ {:?}", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[b, m, n]);
        bmm_dense(Layout::NN, &self.data, &other.data, &mut out.data, b, m, k, n);
        out
    }

    /// Batched `self @ other^T`: `(b×m×k) @ (b×n×k)^T -> (b×m×n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch, or inner-dimension mismatch.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm_nt: lhs must be 3-D");
        assert_eq!(other.ndim(), 3, "bmm_nt: rhs must be 3-D");
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, n, k2) = (other.shape()[0], other.shape()[1], other.shape()[2]);
        assert_eq!(b, b2, "bmm_nt: batch dims differ");
        assert_eq!(k, k2, "bmm_nt: inner dims differ: {:?} @ {:?}^T", self.shape(), other.shape());
        let mut out = Tensor::zeros(&[b, m, n]);
        bmm_dense(Layout::NT, &self.data, &other.data, &mut out.data, b, m, k, n);
        out
    }
}

/// `bsize` products over three contiguous 3-D tensors: one matrix after
/// the other in each operand.
#[allow(clippy::too_many_arguments)]
fn bmm_dense(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bsize: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let stacked = |len: usize| BatchStride { group: len, head: 0 };
    let p = Product::dense(layout, m, k, n);
    kernels::gemm_batched(&p, bsize, 1, a, stacked(m * k), b, stacked(k * n), c, stacked(m * n));
}

#[cfg(test)]
mod tests {
    use crate::tensor::Tensor;
    use pipemare_conv_oracle::assert_close;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_hand_example() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let eye = |n| {
            Tensor::from_vec((0..n * n).map(|i| (i % (n + 1) == 0) as u8 as f32).collect(), &[n, n])
        };
        assert_eq!(eye(3).matmul(&a), a);
        assert_eq!(a.matmul(&eye(4)), a);
    }

    #[test]
    fn matmul_matches_naive_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (8, 4, 8), (5, 7, 3)] {
            let a =
                Tensor::from_vec((0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[m, k]);
            let b =
                Tensor::from_vec((0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[k, n]);
            assert_close(a.matmul(&b).data(), naive_matmul(&a, &b).data(), 1e-5, 1e-5);
        }
    }

    #[test]
    fn large_matmul_is_bit_identical_to_scalar_reference() {
        // Big enough to take the blocked (and, with a multi-thread pool,
        // parallel) path; must still agree bit-for-bit with the scalar
        // p-increasing FMA reference.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let (m, k, n) = (130, 70, 90);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    want[i * n + j] =
                        a.data()[i * k + p].mul_add(b.data()[p * n + j], want[i * n + j]);
                }
            }
        }
        let got = a.matmul(&b);
        assert_eq!(
            got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let a = Tensor::from_vec((0..12).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..20).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[5, 4]);
        assert_close(a.matmul_nt(&b).data(), a.matmul(&b.transpose()).data(), 1e-5, 1e-5);
        let c = Tensor::from_vec((0..15).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[3, 5]);
        assert_close(a.matmul_tn(&c).data(), a.transpose().matmul(&c).data(), 1e-5, 1e-5);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a = Tensor::from_vec(
            (0..2 * 3 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[2, 3, 4],
        );
        let b = Tensor::from_vec(
            (0..2 * 4 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[2, 4, 5],
        );
        let c = a.bmm(&b);
        for bi in 0..2 {
            let ai = a.slice0(bi, 1).reshape(&[3, 4]);
            let bi_t = b.slice0(bi, 1).reshape(&[4, 5]);
            let expected = ai.matmul(&bi_t);
            assert_close(c.slice0(bi, 1).reshape(&[3, 5]).data(), expected.data(), 1e-5, 1e-5);
        }
    }

    #[test]
    fn bmm_transposed_variants_match_permute() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let a = Tensor::randn(&[2, 3, 4], &mut rng);
        let b = Tensor::randn(&[2, 5, 4], &mut rng);
        assert_close(a.bmm_nt(&b).data(), a.bmm(&b.permute(&[0, 2, 1])).data(), 1e-5, 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_shape_mismatch() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }
}
