//! Reductions (sum/mean/max/argmax) and normalized transforms (softmax).
//!
//! Row-wise transforms (softmax family) and outer-loop reductions run on
//! the shared kernel pool for large inputs; each row / output slab is
//! computed independently with serial inner loops, so results are
//! bit-identical at any thread count. Full scalar reductions (`sum`,
//! `dot`, `norm`) stay serial: splitting their single accumulator would
//! change the floating-point association.

use crate::kernels::UnsafeSlice;
use crate::pool;
use crate::tensor::Tensor;

/// Row-parallel transforms engage above this many total elements.
const ROW_PAR_MIN_LEN: usize = 1 << 16;

impl Tensor {
    /// Sum of all elements (accumulated in f64 for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Sums along `axis`, removing that dimension.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= ndim`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        let dims = self.shape().to_vec();
        assert!(axis < dims.len(), "sum_axis: axis {axis} out of range for rank {}", dims.len());
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims = dims.clone();
        out_dims.remove(axis);
        let mut out = Tensor::zeros(&out_dims);
        let reduce_outer = |o: usize, dst: &mut [f32]| {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                for (d, &s) in dst.iter_mut().zip(self.data[base..base + inner].iter()) {
                    *d += s;
                }
            }
        };
        if outer >= 2 && self.len() >= ROW_PAR_MIN_LEN {
            let slab = UnsafeSlice::new(&mut out.data);
            pool::parallel_for(outer, |o| {
                // SAFETY: outer index `o` writes only its own slab.
                let dst = unsafe { slab.slice_mut(o * inner, inner) };
                reduce_outer(o, dst);
            });
        } else {
            for o in 0..outer {
                reduce_outer(o, &mut out.data[o * inner..(o + 1) * inner]);
            }
        }
        out
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows requires a 2-D tensor");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        assert!(n > 0, "argmax_rows: zero columns");
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap()
            })
            .collect()
    }

    /// Numerically stable softmax along the last axis.
    pub fn softmax_last(&self) -> Tensor {
        let dims = self.shape();
        let n = *dims.last().expect("softmax of 0-D tensor");
        let rows = self.len() / n;
        let mut out = self.clone();
        let softmax_row = |row: &mut [f32]| {
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        };
        row_parallel(&mut out.data, rows, n, softmax_row);
        out
    }

    /// Numerically stable log-softmax along the last axis.
    pub fn log_softmax_last(&self) -> Tensor {
        let dims = self.shape();
        let n = *dims.last().expect("log_softmax of 0-D tensor");
        let rows = self.len() / n;
        let mut out = self.clone();
        let log_softmax_row = |row: &mut [f32]| {
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|&x| (x - m).exp()).sum();
            let lz = z.ln() + m;
            for x in row.iter_mut() {
                *x -= lz;
            }
        };
        row_parallel(&mut out.data, rows, n, log_softmax_row);
        out
    }
}

/// Applies `f` to each `n`-element row of `data`, on the pool when the
/// tensor is large. Rows are disjoint, so the split is bit-exact.
fn row_parallel(data: &mut [f32], rows: usize, n: usize, f: impl Fn(&mut [f32]) + Sync) {
    if rows >= 2 && data.len() >= ROW_PAR_MIN_LEN {
        let slab = UnsafeSlice::new(data);
        pool::parallel_for(rows, |r| {
            // SAFETY: row `r` writes only its own `[r*n, (r+1)*n)` range.
            let row = unsafe { slab.slice_mut(r * n, n) };
            f(row);
        });
    } else {
        for r in 0..rows {
            f(&mut data[r * n..(r + 1) * n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_conv_oracle::assert_close;

    #[test]
    fn sum_mean_max() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
    }

    #[test]
    fn sum_axis_all_axes() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let s0 = t.sum_axis(0);
        assert_eq!(s0.shape(), &[3, 4]);
        assert_eq!(s0.at(&[0, 0]), 0.0 + 12.0);
        let s1 = t.sum_axis(1);
        assert_eq!(s1.shape(), &[2, 4]);
        assert_eq!(s1.at(&[0, 0]), 0.0 + 4.0 + 8.0);
        let s2 = t.sum_axis(2);
        assert_eq!(s2.shape(), &[2, 3]);
        assert_eq!(s2.at(&[0, 0]), 0.0 + 1.0 + 2.0 + 3.0);
        // Reducing every axis one at a time equals the total sum.
        assert_eq!(s0.sum(), t.sum());
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1001.0, 1002.0], &[2, 3]);
        let s = t.softmax_last();
        for r in 0..2 {
            let row_sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Shift invariance: both rows have identical softmax.
        assert_close(&s.data()[..3], &s.data()[3..], 1e-6, 1e-6);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.2, 0.3], &[2, 3]);
        let ls = t.log_softmax_last();
        let s = t.softmax_last();
        assert_close(ls.exp().data(), s.data(), 1e-6, 1e-5);
    }
}
