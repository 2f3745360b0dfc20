//! Tensor payloads on the wire. The byte codec under them ([`Writer`],
//! [`Reader`], [`CodecError`], the `u32` frame prefix capped at
//! [`MAX_FRAME`]) is the workspace's one encoding, defined in
//! [`pipemare_telemetry::codec`] and re-exported here; a frame's payload
//! starts with a message tag (see [`crate::protocol`]).
//!
//! Tensors travel dense (`u32` count + f32 bits), dense bf16, or sparse
//! (`u32` dense length, then `u32`-counted strictly-increasing indices
//! and values) — the sparse form cuts wire bytes for the mostly-zero
//! gradients pipelined stages exchange. [`TensorPayload::decode_into`]
//! decodes straight into a caller's slice, so a shard crosses each hop
//! with one copy; every decode path returns a typed [`CodecError`].

pub use pipemare_telemetry::codec::{
    deframe, frame, frame_len, frame_prefix, CodecError, Deframed, Reader, Writer, MAX_FRAME,
};

/// How a tensor-carrying message encodes its values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SparseMode {
    /// Always send the full dense vector.
    Dense,
    /// Drop entries whose bit pattern is exactly `+0.0` — lossless
    /// (decoding restores the identical dense vector bit for bit; `-0.0`
    /// entries are kept because their bits differ from `+0.0`).
    DropZeros,
    /// Drop entries with `|v| <= threshold` — lossy.
    Threshold(f32),
    /// Keep the `ceil(fraction * len)` largest-magnitude entries — lossy.
    TopK(f32),
}

/// A tensor payload as it travels on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorPayload {
    /// Full dense values.
    Dense(Vec<f32>),
    /// Sparse index/value pairs over a dense vector of length `len`.
    Sparse {
        /// Dense length the indices address.
        len: u32,
        /// Strictly increasing indices, each `< len`.
        idx: Vec<u32>,
        /// One value per index.
        val: Vec<f32>,
    },
    /// Dense bf16 bit patterns — half the bytes of [`TensorPayload::Dense`].
    ///
    /// The codec never rounds: senders use this only for buffers that
    /// are *already stored* as bf16 (a demoted weight-history version),
    /// so the wire transfer itself is lossless — widening on receipt is
    /// exact, and re-encoding the widened values reproduces these bits.
    DenseBf16(Vec<u16>),
}

const PAYLOAD_DENSE: u8 = 0;
const PAYLOAD_SPARSE: u8 = 1;
const PAYLOAD_DENSE_BF16: u8 = 2;

impl TensorPayload {
    /// Encodes `values` under `mode`. Sparse candidates fall back to
    /// dense when the index/value pairs would not actually save bytes.
    pub fn from_dense(values: &[f32], mode: SparseMode) -> TensorPayload {
        match sparse_keep(values, mode) {
            None => TensorPayload::Dense(values.to_vec()),
            Some(idx) => {
                let val = idx.iter().map(|&i| values[i as usize]).collect();
                TensorPayload::Sparse { len: values.len() as u32, idx, val }
            }
        }
    }

    /// The dense length this payload expands to.
    pub fn dense_len(&self) -> usize {
        match self {
            TensorPayload::Dense(v) => v.len(),
            TensorPayload::Sparse { len, .. } => *len as usize,
            TensorPayload::DenseBf16(v) => v.len(),
        }
    }

    /// Expands to a dense f32 vector (zeros where no sparse index is
    /// present; bf16 bits widened exactly).
    pub fn into_dense(self) -> Vec<f32> {
        match self {
            TensorPayload::Dense(v) => v,
            TensorPayload::Sparse { len, idx, val } => {
                let mut out = vec![0.0f32; len as usize];
                for (&i, &v) in idx.iter().zip(val.iter()) {
                    out[i as usize] = v;
                }
                out
            }
            TensorPayload::DenseBf16(v) => pipemare_tensor::bf16::decode_slice(&v),
        }
    }

    /// Encoded size in payload bytes (excluding the frame length prefix
    /// and message framing around it).
    pub fn wire_bytes(&self) -> usize {
        match self {
            TensorPayload::Dense(v) => 1 + 4 + 4 * v.len(),
            TensorPayload::Sparse { idx, .. } => 1 + 4 + 4 + 4 + 8 * idx.len(),
            TensorPayload::DenseBf16(v) => 1 + 4 + 2 * v.len(),
        }
    }

    /// Appends the payload to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.reserve(self.wire_bytes());
        match self {
            TensorPayload::Dense(v) => encode_dense(w, v.iter().copied()),
            TensorPayload::Sparse { len, idx, val } => {
                w.put_u8(PAYLOAD_SPARSE);
                w.put_u32(*len);
                w.put_u32s(idx);
                w.put_f32s(val);
            }
            TensorPayload::DenseBf16(v) => encode_dense_bf16(w, v),
        }
    }

    /// Decodes a payload, validating sparse invariants (nnz within the
    /// dense length, indices strictly increasing and in range, index and
    /// value counts equal).
    pub fn decode(r: &mut Reader<'_>) -> Result<TensorPayload, CodecError> {
        match r.get_u8()? {
            PAYLOAD_DENSE => Ok(TensorPayload::Dense(r.get_f32s()?)),
            PAYLOAD_SPARSE => {
                let (len, pairs) = get_sparse(r)?;
                let (idx, val) = pairs.unzip();
                Ok(TensorPayload::Sparse { len, idx, val })
            }
            PAYLOAD_DENSE_BF16 => Ok(TensorPayload::DenseBf16(r.get_u16s()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Decodes a payload straight into `dst` — what
    /// `decode(r)?.into_dense()` yields, without the intermediate
    /// vectors. Validates exactly what [`TensorPayload::decode`] does.
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthMismatch`] when the payload's dense length is
    /// not `dst.len()`. On any error `dst` is untouched.
    pub fn decode_into(r: &mut Reader<'_>, dst: &mut [f32]) -> Result<(), CodecError> {
        let expected = dst.len();
        let fits = |got: usize| {
            (got == expected).then_some(()).ok_or(CodecError::LengthMismatch { expected, got })
        };
        match r.get_u8()? {
            PAYLOAD_DENSE => r.get_f32s_into(dst),
            PAYLOAD_SPARSE => {
                let (len, pairs) = get_sparse(r)?;
                fits(len as usize)?;
                dst.fill(0.0);
                for (i, v) in pairs {
                    dst[i as usize] = v;
                }
                Ok(())
            }
            PAYLOAD_DENSE_BF16 => {
                let bits = r.get_u16_run()?;
                fits(bits.len())?;
                for (d, h) in dst.iter_mut().zip(bits) {
                    *d = pipemare_tensor::bf16::decode(h);
                }
                Ok(())
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// Reads a sparse payload's body (after its tag) as its dense length and
/// `(index, value)` pairs, validated before any is returned: as many
/// values as indices, no more than the dense length, indices strictly
/// increasing and in range.
fn get_sparse<'a>(
    r: &mut Reader<'a>,
) -> Result<(u32, impl Iterator<Item = (u32, f32)> + 'a), CodecError> {
    let len = r.get_u32()?;
    let (idx, val) = (r.get_u32_run()?, r.get_f32_run()?);
    if idx.len() != val.len() {
        return Err(CodecError::LengthMismatch { expected: idx.len(), got: val.len() });
    }
    if idx.len() > len as usize {
        return Err(CodecError::LengthMismatch { expected: len as usize, got: idx.len() });
    }
    // Strictly increasing: each index at least one past the previous.
    let mut next = 0;
    for i in idx.clone() {
        if i < next || i >= len {
            return Err(CodecError::BadIndex { index: i, len });
        }
        next = i + 1;
    }
    Ok((len, idx.zip(val)))
}

/// Indices of `values` that `mode` keeps, or `None` when the dense form
/// is at least as small (always, for [`SparseMode::Dense`]).
fn sparse_keep(values: &[f32], mode: SparseMode) -> Option<Vec<u32>> {
    let keep: Vec<u32> = match mode {
        SparseMode::Dense => return None,
        SparseMode::DropZeros => {
            (0..values.len() as u32).filter(|&i| values[i as usize].to_bits() != 0).collect()
        }
        SparseMode::Threshold(t) => {
            (0..values.len() as u32).filter(|&i| values[i as usize].abs() > t).collect()
        }
        SparseMode::TopK(frac) => {
            let k = ((frac.clamp(0.0, 1.0) as f64 * values.len() as f64).ceil() as usize)
                .min(values.len());
            let mut order: Vec<u32> = (0..values.len() as u32).collect();
            // total_cmp keeps the comparator a total order even with
            // NaN entries (they sort above +inf, so they are kept).
            order.sort_by(|&a, &b| {
                values[b as usize].abs().total_cmp(&values[a as usize].abs()).then(a.cmp(&b))
            });
            let mut kept = order[..k].to_vec();
            kept.sort_unstable();
            kept
        }
    };
    // 8 bytes per sparse pair vs 4 per dense element: sparse only
    // pays off below 50% density.
    (keep.len() * 8 < values.len() * 4).then_some(keep)
}

/// One tensor encoded under a [`SparseMode`] a chunk at a time, straight
/// from the borrowed slice. Which entries travel is decided once, over
/// the whole tensor (the dense-or-sparse choice and top-k's selection
/// alike), so the chunks' payloads, decoded and laid end to end, are
/// exactly `TensorPayload::from_dense(values, mode).into_dense()`, and a
/// single chunk spanning the tensor is byte for byte
/// `from_dense(values, mode).encode(w)`.
pub struct ChunkEncoder<'a> {
    values: &'a [f32],
    /// The kept indices, ascending; `None` when the tensor goes dense.
    keep: Option<Vec<u32>>,
}

impl<'a> ChunkEncoder<'a> {
    /// Decides what of `values` travels under `mode`.
    pub fn new(values: &'a [f32], mode: SparseMode) -> Self {
        ChunkEncoder { values, keep: sparse_keep(values, mode) }
    }

    /// Appends the payload of `values[range]`. A sparse tensor's chunk
    /// carries the kept entries in its range, indexed from its start —
    /// or, where that would not save bytes, all its values with the
    /// dropped ones zeroed, so no chunk outgrows its dense form.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn encode(&self, w: &mut Writer, range: std::ops::Range<usize>) {
        let chunk = &self.values[range.clone()];
        let Some(keep) = &self.keep else {
            return encode_dense(w, chunk.iter().copied());
        };
        let below = |end: usize| keep.partition_point(|&i| (i as usize) < end);
        let kept = &keep[below(range.start)..below(range.end)];
        let local = kept.iter().map(|&i| i as usize - range.start);
        if kept.len() * 8 < chunk.len() * 4 {
            w.put_u8(PAYLOAD_SPARSE);
            w.put_u32(chunk.len() as u32);
            w.put_u32s_from(local.clone().map(|i| i as u32));
            w.put_f32s_from(local.map(|i| chunk[i]));
        } else {
            let mut local = local.peekable();
            let masked = chunk.iter().enumerate();
            encode_dense(
                w,
                masked.map(|(i, &v)| if local.next_if_eq(&i).is_some() { v } else { 0.0 }),
            );
        }
    }
}

/// Appends a dense f32 payload of values computed on the fly — byte for
/// byte `TensorPayload::Dense(collected).encode(w)`.
pub fn encode_dense(w: &mut Writer, values: impl ExactSizeIterator<Item = f32>) {
    w.put_u8(PAYLOAD_DENSE);
    w.put_f32s_from(values);
}

/// Appends a dense bf16 payload from borrowed bits — byte for byte
/// `TensorPayload::DenseBf16(bits.to_vec()).encode(w)`.
pub fn encode_dense_bf16(w: &mut Writer, bits: &[u16]) {
    w.put_u8(PAYLOAD_DENSE_BF16);
    w.put_u16s(bits);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_decode_validates_indices() {
        // Out-of-range index.
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u32(4); // len
        w.put_u32s(&[5]);
        w.put_f32s(&[1.0]);
        let b = w.into_bytes();
        assert!(matches!(
            TensorPayload::decode(&mut Reader::new(&b)),
            Err(CodecError::BadIndex { index: 5, len: 4 })
        ));
        // Non-increasing indices.
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u32(4);
        w.put_u32s(&[2, 2]);
        w.put_f32s(&[1.0, 2.0]);
        let b = w.into_bytes();
        assert!(matches!(
            TensorPayload::decode(&mut Reader::new(&b)),
            Err(CodecError::BadIndex { .. })
        ));
    }

    #[test]
    fn drop_zeros_is_bit_lossless() {
        let v = vec![0.0, 1.5, -0.0, 0.0, f32::MIN_POSITIVE, 0.0, -3.0, 0.0, 0.0, 0.0];
        let p = TensorPayload::from_dense(&v, SparseMode::DropZeros);
        match &p {
            TensorPayload::Sparse { idx, .. } => assert_eq!(idx, &[1, 2, 4, 6]),
            other => panic!("expected sparse, got {other:?}"),
        }
        let back = p.into_dense();
        let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        let back_bits: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, back_bits, "-0.0 and subnormals must survive");
    }

    #[test]
    fn sparse_falls_back_to_dense_when_not_smaller() {
        let v = vec![1.0f32; 100]; // nothing to drop
        assert!(matches!(
            TensorPayload::from_dense(&v, SparseMode::DropZeros),
            TensorPayload::Dense(_)
        ));
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let v = vec![0.1, -5.0, 0.2, 4.0, 0.0, -0.3];
        let p = TensorPayload::from_dense(&v, SparseMode::TopK(0.2));
        match &p {
            TensorPayload::Sparse { idx, val, .. } => {
                assert_eq!(idx, &[1, 3]);
                assert_eq!(val, &[-5.0, 4.0]);
            }
            other => panic!("expected sparse, got {other:?}"),
        }
    }

    #[test]
    fn dense_bf16_roundtrips_bits_and_widens_exactly() {
        let bits: Vec<u16> = vec![0x3F80, 0xBF80, 0x0000, 0x8000, 0x7F80, 0x4049];
        let p = TensorPayload::DenseBf16(bits.clone());
        assert_eq!(p.dense_len(), bits.len());
        assert_eq!(p.wire_bytes(), 1 + 4 + 2 * bits.len());
        let mut w = Writer::new();
        p.encode(&mut w);
        let encoded = w.into_bytes();
        let mut r = Reader::new(&encoded);
        let back = TensorPayload::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, p, "wire round-trip must preserve the bf16 bits");
        // Widening then re-encoding is the identity: the wire is
        // lossless for bf16-stored buffers.
        let wide = back.into_dense();
        assert_eq!(pipemare_tensor::bf16::encode_slice(&wide), bits);
    }
}
