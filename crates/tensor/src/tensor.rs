//! The core [`Tensor`] type: a contiguous, row-major, `f32` n-d array.

use crate::shape::Shape;

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` owns its data. All operations produce new tensors except the
/// `_inplace`/`*_mut` family. Shape mismatches panic with descriptive
/// messages; see the crate-level docs for conventions.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    pub(crate) data: Vec<f32>,
    pub(crate) shape: Shape,
}

impl Tensor {
    /// Creates a tensor from a data vector and shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let s = Shape::new(shape);
        assert_eq!(
            data.len(),
            s.size(),
            "data length {} does not match shape {:?} (size {})",
            data.len(),
            shape,
            s.size()
        );
        Tensor { data, shape: s }
    }

    /// Creates a scalar (0-dimensional) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: Shape::new(&[]) }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let s = Shape::new(shape);
        Tensor { data: vec![0.0; s.size()], shape: s }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let s = Shape::new(shape);
        Tensor { data: vec![value; s.size()], shape: s }
    }

    /// The shape extents, outermost first.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the single element of a size-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not have exactly one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() requires a single-element tensor, got shape {:?}",
            self.shape()
        );
        self.data[0]
    }

    /// Element access by multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        let dims = self.shape.dims();
        assert_eq!(idx.len(), dims.len(), "index rank {} != tensor rank {}", idx.len(), dims.len());
        let mut flat = 0;
        for (k, (&i, &d)) in idx.iter().zip(dims.iter()).enumerate() {
            assert!(i < d, "index {i} out of bounds for dim {k} (extent {d})");
            flat = flat * d + i;
        }
        flat
    }

    /// Returns a copy of the data under a new shape of equal size; on a
    /// temporary, [`Tensor::reshaped`] does the same without the copy.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's size differs from the current size.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        self.clone().reshaped(shape)
    }

    /// Consumes the tensor and returns its data under a new shape of
    /// equal size — no copy, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's size differs from the current size.
    pub fn reshaped(self, shape: &[usize]) -> Tensor {
        let s = Shape::new(shape);
        assert_eq!(
            s.size(),
            self.len(),
            "cannot reshape {:?} (size {}) to {:?} (size {})",
            self.shape(),
            self.len(),
            shape,
            s.size()
        );
        Tensor { data: self.data, shape: s }
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose() requires a 2-D tensor, got {:?}", self.shape());
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Permutes the dimensions of the tensor according to `perm`.
    ///
    /// `perm` must be a permutation of `0..ndim`. The result is a new
    /// contiguous tensor.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a valid permutation.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let nd = self.ndim();
        assert_eq!(perm.len(), nd, "permutation rank {} != tensor rank {nd}", perm.len());
        for (k, &p) in perm.iter().enumerate() {
            let fresh = p < nd && !perm[..k].contains(&p);
            assert!(fresh, "invalid permutation {perm:?} for rank {nd}");
        }
        let timer = crate::telemetry::kernel_timer(crate::telemetry::KernelKind::Permute, 0);
        let src_dims = self.shape.dims();
        let src_strides = self.shape.strides();
        let dst_dims: Vec<usize> = perm.iter().map(|&p| src_dims[p]).collect();
        // Source stride of every destination axis.
        let strides: Vec<usize> = perm.iter().map(|&p| src_strides[p]).collect();
        let mut out = Tensor::zeros(&dst_dims);
        // The destination is written front to back, one innermost run at
        // a time, while an odometer over the outer axes keeps the source
        // offset in step — additions only, no division per element.
        let outer = nd.saturating_sub(1);
        let (run, step) = if nd == 0 { (1, 1) } else { (dst_dims[outer], strides[outer]) };
        let mut idx = vec![0usize; outer];
        let mut src = 0usize;
        // (`max(1)`: a zero-extent innermost axis leaves nothing to chunk.)
        for dst_run in out.data.chunks_exact_mut(run.max(1)) {
            if step == 1 {
                dst_run.copy_from_slice(&self.data[src..src + run]);
            } else {
                for (d, &v) in dst_run.iter_mut().zip(self.data[src..].iter().step_by(step)) {
                    *d = v;
                }
            }
            for k in (0..outer).rev() {
                idx[k] += 1;
                src += strides[k];
                if idx[k] < dst_dims[k] {
                    break;
                }
                src -= idx[k] * strides[k];
                idx[k] = 0;
            }
        }
        crate::telemetry::kernel_record(timer);
        out
    }

    /// Extracts row `i` of a 2-D tensor as a 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let n = self.shape()[1];
        assert!(i < self.shape()[0], "row {i} out of bounds");
        Tensor::from_vec(self.data[i * n..(i + 1) * n].to_vec(), &[n])
    }

    /// Returns a contiguous slice of `count` outermost entries starting at
    /// `start` (i.e. `self[start..start+count]` along axis 0).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or the tensor is 0-D.
    pub fn slice0(&self, start: usize, count: usize) -> Tensor {
        assert!(self.ndim() >= 1, "slice0 requires rank >= 1");
        let dims = self.shape.dims();
        assert!(
            start + count <= dims[0],
            "slice0 range {start}..{} out of bounds (extent {})",
            start + count,
            dims[0]
        );
        let inner: usize = dims[1..].iter().product();
        let data = self.data[start * inner..(start + count) * inner].to_vec();
        let mut out_dims = vec![count];
        out_dims.extend_from_slice(&dims[1..]);
        Tensor::from_vec(data, &out_dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).data(), &[0.0; 6]);
        assert_eq!(Tensor::full(&[2], 3.5).data(), &[3.5, 3.5]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_len_mismatch() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn indexing() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[1, 0, 2]), 14.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds() {
        Tensor::zeros(&[2, 2]).at(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[6]).reshape(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(&[1, 1]), 4.0);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn permute_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), t.at(&[1, 2, 3]));
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
    }

    /// The formula `permute` used before the odometer: unravel every
    /// destination index and dot it with the permuted source strides.
    fn permute_by_unravel(t: &Tensor, perm: &[usize]) -> Tensor {
        let dst_dims: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
        let src_strides = t.shape.strides();
        let mut out = Tensor::zeros(&dst_dims);
        let mut idx = vec![0usize; perm.len()];
        for (flat, slot) in out.data.iter_mut().enumerate() {
            crate::shape::unravel(flat, &dst_dims, &mut idx);
            *slot = t.data[perm.iter().zip(&idx).map(|(&p, &i)| i * src_strides[p]).sum::<usize>()];
        }
        out
    }

    #[test]
    fn permute_matches_the_unravel_formula_on_ranks_2_to_5() {
        // Every permutation of every rank, over extents that include
        // size-1 axes in the leading, middle and innermost positions.
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![Vec::new()];
            }
            let mut out = Vec::new();
            for rest in permutations(n - 1) {
                for at in 0..n {
                    let mut p = rest.clone();
                    p.insert(at, n - 1);
                    out.push(p);
                }
            }
            out
        }
        for dims in [
            vec![3, 4],
            vec![1, 5],
            vec![2, 3, 4],
            vec![3, 1, 2],
            vec![2, 3, 2, 5],
            vec![1, 4, 3, 1],
            vec![2, 1, 3, 2, 3],
            vec![2, 3, 1, 1, 4],
        ] {
            let t = Tensor::from_vec((0..dims.iter().product()).map(|x| x as f32).collect(), &dims);
            for perm in permutations(dims.len()) {
                assert_eq!(t.permute(&perm), permute_by_unravel(&t, &perm), "{dims:?} {perm:?}");
            }
        }
        assert_eq!(Tensor::scalar(2.0).permute(&[]), Tensor::scalar(2.0));
        assert_eq!(Tensor::zeros(&[2, 0, 3]).permute(&[2, 0, 1]).shape(), &[3, 2, 0]);
        assert_eq!(Tensor::zeros(&[2, 0, 3]).permute(&[1, 0, 2]).shape(), &[0, 2, 3]);
    }

    #[test]
    fn permute_matches_transpose() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        assert_eq!(t.permute(&[1, 0]), t.transpose());
    }

    #[test]
    fn slice_and_row() {
        let c = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        assert_eq!(c.slice0(1, 2), b);
        assert_eq!(c.row(0).data(), &[1.0, 2.0]);
    }
}
