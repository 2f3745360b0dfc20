//! Shape arithmetic: size computation, stride derivation, broadcasting.

/// Largest rank a [`Shape`] holds. The workspace's tensors stop at 4-D
/// (NCHW activations, head-split attention); the permute tests go to 5.
pub const MAX_RANK: usize = 6;

/// A tensor shape: a list of dimension extents, outermost first.
///
/// The extents live inline (a fixed array plus the rank), so a shape is
/// `Copy` and a [`crate::Tensor`] is one heap allocation, not two. The
/// unused tail of the array is always zero, so the derived comparisons
/// see the extents and nothing else.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from a slice of extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() <= MAX_RANK, "shape {dims:?} has rank above {MAX_RANK}");
        let mut inline = [0; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape { dims: inline, rank: dims.len() }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.rank
    }

    /// Total number of elements (product of extents; 1 for a scalar shape).
    pub fn size(&self) -> usize {
        self.dims().iter().product()
    }

    /// Extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Row-major ("C") strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.rank];
        let mut acc = 1usize;
        for (i, &d) in self.dims().iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

/// Computes the broadcast shape of two shapes under NumPy trailing-dimension
/// rules.
///
/// Dimensions are aligned from the right; each pair must be equal or one of
/// them must be `1`.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Vec<usize> {
    let n = a.len().max(b.len());
    let mut out = vec![0usize; n];
    for i in 0..n {
        let da = if i < n - a.len() { 1 } else { a[i - (n - a.len())] };
        let db = if i < n - b.len() { 1 } else { b[i - (n - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            panic!("shapes {a:?} and {b:?} are not broadcast-compatible (dims {da} vs {db})");
        };
    }
    out
}

/// Converts a flat index into a multi-index for `shape`.
pub(crate) fn unravel(mut flat: usize, shape: &[usize], out: &mut [usize]) {
    for i in (0..shape.len()).rev() {
        out[i] = flat % shape[i];
        flat /= shape[i];
    }
}

/// Converts a multi-index into a flat index for a tensor of shape `shape`,
/// treating size-1 dimensions as broadcast (index clamped to 0).
pub(crate) fn ravel_broadcast(idx: &[usize], shape: &[usize]) -> usize {
    // `idx` is aligned to the *right* of `shape`s broadcast target; `shape`
    // may be shorter than `idx`.
    let offset = idx.len() - shape.len();
    let mut flat = 0usize;
    let mut stride = 1usize;
    for i in (0..shape.len()).rev() {
        let j = if shape[i] == 1 { 0 } else { idx[i + offset] };
        flat += j * stride;
        stride *= shape[i];
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn size_and_ndim() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.size(), 24);
        assert_eq!(s.ndim(), 3);
        assert_eq!(Shape::new(&[]).size(), 1);
    }

    #[test]
    fn equality_and_debug_see_the_extents_only() {
        assert_eq!(Shape::new(&[2, 3]), Shape::new(&[2, 3]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 1]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 0]));
        assert_eq!(format!("{:?}", Shape::new(&[2, 3])), "Shape([2, 3])");
    }

    #[test]
    #[should_panic(expected = "rank above")]
    fn rank_above_the_inline_capacity_panics() {
        Shape::new(&[1; MAX_RANK + 1]);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4, 5]), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn broadcast_incompatible() {
        broadcast_shapes(&[2, 3], &[4, 3]);
    }

    #[test]
    fn unravel_ravel_roundtrip() {
        let shape = [2usize, 3, 4];
        let mut idx = [0usize; 3];
        for flat in 0..24 {
            unravel(flat, &shape, &mut idx);
            assert_eq!(ravel_broadcast(&idx, &shape), flat);
        }
    }

    #[test]
    fn ravel_broadcast_clamps_unit_dims() {
        // shape [1, 4] broadcast against index space [3, 4]
        let idx = [2usize, 3];
        assert_eq!(ravel_broadcast(&idx, &[1, 4]), 3);
        // trailing alignment: shape [4] against index [2, 3]
        assert_eq!(ravel_broadcast(&idx, &[4]), 3);
    }
}
