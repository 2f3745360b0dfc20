//! Elementwise operations with NumPy-style broadcasting.
//!
//! Large same-shape elementwise ops are split over fixed-size element
//! chunks and run on the shared kernel pool. Each output element depends
//! only on its own inputs and the chunk boundaries are independent of
//! the thread count, so the parallel path is trivially bit-identical to
//! the serial one.

use crate::kernels::UnsafeSlice;
use crate::pool;
use crate::shape::{broadcast_shapes, ravel_broadcast, unravel};
use crate::tensor::Tensor;

/// Elementwise ops shorter than this stay serial.
const PAR_MIN_LEN: usize = 1 << 16;
/// Elements per parallel chunk (fixed, so the split never depends on the
/// pool size).
const PAR_CHUNK: usize = 1 << 14;

/// Runs `body(start, end)` over `[0, len)`, in parallel chunks when the
/// range is long enough. `body` must only touch data derived from its
/// own disjoint `[start, end)` window.
pub(crate) fn par_ranges(len: usize, body: impl Fn(usize, usize) + Sync) {
    if len < PAR_MIN_LEN {
        body(0, len);
        return;
    }
    pool::parallel_for(len.div_ceil(PAR_CHUNK), |c| {
        let start = c * PAR_CHUNK;
        body(start, (start + PAR_CHUNK).min(len));
    });
}

impl Tensor {
    /// Applies a unary function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        let out = UnsafeSlice::new(&mut data);
        par_ranges(self.data.len(), |start, end| {
            // SAFETY: chunks write disjoint `[start, end)` ranges.
            let dst = unsafe { out.slice_mut(start, end - start) };
            for (o, &x) in dst.iter_mut().zip(self.data[start..end].iter()) {
                *o = f(x);
            }
        });
        Tensor { data, shape: self.shape }
    }

    /// Applies a unary function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let len = self.data.len();
        let out = UnsafeSlice::new(&mut self.data);
        par_ranges(len, |start, end| {
            // SAFETY: chunks write disjoint `[start, end)` ranges.
            let dst = unsafe { out.slice_mut(start, end - start) };
            for x in dst {
                *x = f(*x);
            }
        });
    }

    /// Combines two tensors elementwise with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        if self.shape == other.shape {
            // Fast path: identical shapes.
            let mut data = vec![0.0f32; self.data.len()];
            let out = UnsafeSlice::new(&mut data);
            par_ranges(self.data.len(), |start, end| {
                // SAFETY: chunks write disjoint `[start, end)` ranges.
                let dst = unsafe { out.slice_mut(start, end - start) };
                for ((o, &a), &b) in dst
                    .iter_mut()
                    .zip(self.data[start..end].iter())
                    .zip(other.data[start..end].iter())
                {
                    *o = f(a, b);
                }
            });
            return Tensor { data, shape: self.shape };
        }
        let out_dims = broadcast_shapes(self.shape(), other.shape());
        let mut out = Tensor::zeros(&out_dims);
        let mut idx = vec![0usize; out_dims.len()];
        for (flat, slot) in out.data.iter_mut().enumerate() {
            unravel(flat, &out_dims, &mut idx);
            let a = self.data[ravel_broadcast(&idx, self.shape())];
            let b = other.data[ravel_broadcast(&idx, other.shape())];
            *slot = f(a, b);
        }
        out
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Accumulates `alpha * other` into `self` (`self += alpha * other`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ (no broadcasting; this is the hot-loop
    /// accumulation primitive).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape,
            other.shape,
            "axpy: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let len = self.data.len();
        let out = UnsafeSlice::new(&mut self.data);
        par_ranges(len, |start, end| {
            // SAFETY: chunks write disjoint `[start, end)` ranges.
            let dst = unsafe { out.slice_mut(start, end - start) };
            for (a, &b) in dst.iter_mut().zip(other.data[start..end].iter()) {
                *a += alpha * b;
            }
        });
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x as f64 * x as f64).sum::<f64>() as f32
    }

    /// Euclidean norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two equally-shaped tensors (flattened).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: size mismatch {} vs {}", self.len(), other.len());
        self.data.iter().zip(other.data.iter()).map(|(&a, &b)| a as f64 * b as f64).sum::<f64>()
            as f32
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise power with a scalar exponent.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map(|x| x.powf(p))
    }

    /// Elementwise clamp.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }
}

impl std::ops::Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs)
    }
}

impl std::ops::Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs)
    }
}

impl std::ops::Mul<&Tensor> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        Tensor::mul(self, rhs)
    }
}

impl std::ops::Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_conv_oracle::assert_close;

    #[test]
    fn same_shape_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let bias = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&bias);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Tensor::full(&[2, 3], 1.0);
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let c = a.mul(&col);
        assert_eq!(c.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn scalar_ops_and_norms() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.scale(2.0).data(), &[6.0, 8.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[4.0, 5.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.sq_norm(), 25.0);
        assert_eq!(a.dot(&a), 25.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(&[3], 1.0);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn relu_and_clamp() {
        let a = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0]);
        assert_eq!(a.clamp(-0.5, 1.0).data(), &[-0.5, 0.0, 1.0]);
    }

    #[test]
    fn exp_ln_roundtrip() {
        let a = Tensor::from_vec(vec![0.5, 1.0, 2.0], &[3]);
        assert_close(a.exp().ln().data(), a.data(), 1e-6, 1e-6);
    }

    #[test]
    fn operator_overloads() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!((&a + &b).data(), &[4.0, 6.0]);
        assert_eq!((&b - &a).data(), &[2.0, 2.0]);
        assert_eq!((&a * &b).data(), &[3.0, 8.0]);
        assert_eq!((&a * 3.0).data(), &[3.0, 6.0]);
    }
}
