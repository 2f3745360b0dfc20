//! Hand-rolled length-prefixed binary wire format (no serde — the
//! workspace is offline-only).
//!
//! A *frame* on the wire is a `u32` little-endian payload length followed
//! by the payload; the payload's first byte is a message tag (see
//! [`crate::protocol`]). Byte order is little-endian everywhere, on
//! every host: each integer goes through `to_le_bytes`/`from_le_bytes`
//! and floats travel as their IEEE-754 bit patterns, so encode→decode is
//! bit-exact including NaNs and signed zeros.
//!
//! Slices move in bulk: the writer reserves the whole run once and the
//! per-element `to_le_bytes` loop compiles to a straight copy on
//! little-endian targets; the reader decodes either into a fresh vector
//! sized from the bytes actually present or straight into a caller's
//! slice ([`Reader::get_f32s_into`], [`TensorPayload::decode_into`]), so
//! a shard crosses each hop with one copy.
//!
//! Tensors travel either dense (`u32` count + raw f32 bits) or sparse
//! (`u32` dense length, `u32` nnz, then nnz strictly-increasing `u32`
//! indices and nnz `f32` values) — the sparse form cuts wire bytes for
//! the mostly-zero gradients PipeMare's pipelined stages exchange.
//! Every decode path returns a typed [`CodecError`]; malformed input
//! never panics.

use crate::error::CodecError;

/// Hard cap on a frame's payload length (256 MiB). A corrupted or
/// hostile length prefix is rejected before any allocation.
pub const MAX_FRAME: usize = 1 << 28;

/// Little-endian byte writer backing the codec.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Encodes one frame into `frame`, replacing its contents but
    /// keeping its storage — the way a link reuses one frame buffer for
    /// every large frame it builds.
    pub fn refill<R>(frame: &mut Vec<u8>, encode: impl FnOnce(&mut Writer) -> R) -> R {
        frame.clear();
        let mut w = Writer { buf: std::mem::take(frame) };
        let out = encode(&mut w);
        *frame = w.buf;
        out
    }

    /// Makes room for `additional` more bytes in one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as a single `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed f32 slice (bit patterns).
    pub fn put_f32s(&mut self, vs: &[f32]) {
        self.put_f32s_from(vs.iter().copied());
    }

    /// Appends a length-prefixed run of f32 values computed on the fly
    /// — byte for byte what [`Writer::put_f32s`] writes for the
    /// collected values, without materializing them (the worker fuses
    /// the T2 extrapolation into the encode this way).
    pub fn put_f32s_from(&mut self, values: impl ExactSizeIterator<Item = f32>) {
        self.put_u32(values.len() as u32);
        self.buf.reserve(4 * values.len());
        self.buf.extend(values.flat_map(|v| v.to_le_bytes()));
    }

    /// Appends a length-prefixed u32 slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u32(vs.len() as u32);
        self.buf.reserve(4 * vs.len());
        self.buf.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Appends a length-prefixed u16 slice (bf16 bit patterns).
    pub fn put_u16s(&mut self, vs: &[u16]) {
        self.put_u32(vs.len() as u32);
        self.buf.reserve(2 * vs.len());
        self.buf.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Appends an optional `f64` as a presence byte + bits.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends an optional `u32` as a presence byte + value.
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u32(x);
            }
            None => self.put_bool(false),
        }
    }
}

/// Little-endian byte reader; every accessor returns a typed error on
/// truncation or invalid content.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`CodecError::Trailing`] if any bytes are left.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    /// Reads an `f32` bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a strict `0`/`1` bool byte.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadValue("bool byte not 0/1")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadValue("invalid UTF-8"))
    }

    /// Reads a `u32` count and takes that many `width`-byte elements.
    /// The count is checked against the bytes actually present before
    /// anything is allocated for it.
    fn take_run(&mut self, width: usize) -> Result<&'a [u8], CodecError> {
        let n = self.get_u32()? as usize;
        self.take(n.checked_mul(width).ok_or(CodecError::Truncated)?)
    }

    /// Reads a length-prefixed f32 slice.
    pub fn get_f32s(&mut self) -> Result<Vec<f32>, CodecError> {
        Ok(le_f32s(self.take_run(4)?).collect())
    }

    /// Reads a length-prefixed f32 slice straight into `dst`.
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthMismatch`] when the encoded count is not
    /// `dst.len()`; `dst` is untouched in that case.
    pub fn get_f32s_into(&mut self, dst: &mut [f32]) -> Result<(), CodecError> {
        let bytes = self.take_run(4)?;
        if bytes.len() != 4 * dst.len() {
            return Err(CodecError::LengthMismatch { expected: dst.len(), got: bytes.len() / 4 });
        }
        for (d, v) in dst.iter_mut().zip(le_f32s(bytes)) {
            *d = v;
        }
        Ok(())
    }

    /// Reads a length-prefixed u32 slice.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        Ok(le_u32s(self.take_run(4)?).collect())
    }

    /// Reads a length-prefixed u16 slice.
    pub fn get_u16s(&mut self) -> Result<Vec<u16>, CodecError> {
        Ok(le_u16s(self.take_run(2)?).collect())
    }

    /// Reads an optional `f64`.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        Ok(if self.get_bool()? { Some(self.get_f64()?) } else { None })
    }

    /// Reads an optional `u32`.
    pub fn get_opt_u32(&mut self) -> Result<Option<u32>, CodecError> {
        Ok(if self.get_bool()? { Some(self.get_u32()?) } else { None })
    }
}

fn le_u32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

fn le_f32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
    le_u32s(bytes).map(f32::from_bits)
}

fn le_u16s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u16> + '_ {
    bytes.chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk")))
}

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

    /// Appends `values` under `mode` — the bytes
    /// `from_dense(values, mode).encode(w)` writes, straight from the
    /// borrowed slice.
    pub fn encode_from_dense(w: &mut Writer, values: &[f32], mode: SparseMode) {
        match sparse_keep(values, mode) {
            None => encode_dense(w, values.iter().copied()),
            Some(idx) => {
                w.put_u8(PAYLOAD_SPARSE);
                w.put_u32(values.len() as u32);
                w.put_u32s(&idx);
                w.put_f32s_from(idx.iter().map(|&i| values[i as usize]));
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
                let len = r.get_u32()?;
                let idx = r.get_u32s()?;
                let val = r.get_f32s()?;
                if idx.len() != val.len() {
                    return Err(CodecError::LengthMismatch { expected: idx.len(), got: val.len() });
                }
                if idx.len() > len as usize {
                    return Err(CodecError::LengthMismatch {
                        expected: len as usize,
                        got: idx.len(),
                    });
                }
                let mut prev: Option<u32> = None;
                for &i in &idx {
                    if i >= len || prev.is_some_and(|p| i <= p) {
                        return Err(CodecError::BadIndex { index: i, len });
                    }
                    prev = Some(i);
                }
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
    /// not `dst.len()`. On any error `dst` may be partly overwritten.
    pub fn decode_into(r: &mut Reader<'_>, dst: &mut [f32]) -> Result<(), CodecError> {
        let expected = dst.len();
        let fits = |got: usize| {
            (got == expected).then_some(()).ok_or(CodecError::LengthMismatch { expected, got })
        };
        match r.get_u8()? {
            PAYLOAD_DENSE => r.get_f32s_into(dst),
            PAYLOAD_SPARSE => {
                let len = r.get_u32()?;
                let (idx, val) = (r.take_run(4)?, r.take_run(4)?);
                if idx.len() != val.len() {
                    return Err(CodecError::LengthMismatch {
                        expected: idx.len() / 4,
                        got: val.len() / 4,
                    });
                }
                if idx.len() / 4 > len as usize {
                    return Err(CodecError::LengthMismatch {
                        expected: len as usize,
                        got: idx.len() / 4,
                    });
                }
                fits(len as usize)?;
                dst.fill(0.0);
                let mut prev: Option<u32> = None;
                for (i, v) in le_u32s(idx).zip(le_f32s(val)) {
                    if i >= len || prev.is_some_and(|p| i <= p) {
                        return Err(CodecError::BadIndex { index: i, len });
                    }
                    prev = Some(i);
                    dst[i as usize] = v;
                }
                Ok(())
            }
            PAYLOAD_DENSE_BF16 => {
                let bits = r.take_run(2)?;
                fits(bits.len() / 2)?;
                for (d, h) in dst.iter_mut().zip(le_u16s(bits)) {
                    *d = pipemare_tensor::bf16::decode(h);
                }
                Ok(())
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
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

/// Prepends the `u32` length prefix to an encoded payload, producing the
/// exact byte sequence a transport puts on the wire.
///
/// # Errors
///
/// [`CodecError::FrameTooLarge`] when the payload exceeds [`MAX_FRAME`].
pub fn frame(payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    if payload.len() > MAX_FRAME {
        return Err(CodecError::FrameTooLarge(payload.len() as u64));
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// A deframed message: the frame payload and the remaining bytes.
pub type Deframed<'a> = Option<(&'a [u8], &'a [u8])>;

/// Splits one frame off the front of `bytes`: returns `(payload, rest)`,
/// or `None` when more bytes are needed.
///
/// # Errors
///
/// [`CodecError::FrameTooLarge`] when the length prefix exceeds
/// [`MAX_FRAME`] — checked before any allocation.
pub fn deframe(bytes: &[u8]) -> Result<Deframed<'_>, CodecError> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("sized")) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::FrameTooLarge(len as u64));
    }
    if bytes.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((&bytes[4..4 + len], &bytes[4 + len..])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("hëllo");
        w.put_opt_f64(None);
        w.put_opt_u32(Some(9));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "hëllo");
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_opt_u32().unwrap(), Some(9));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_not_panicking() {
        let mut w = Writer::new();
        w.put_f32s(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.get_f32s().is_err(), "cut at {cut} must error");
        }
    }

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

    #[test]
    fn frame_rejects_oversize_and_deframe_rejects_bad_prefix() {
        assert!(matches!(frame(&vec![0u8; MAX_FRAME + 1]), Err(CodecError::FrameTooLarge(_))));
        let mut bad = Vec::new();
        bad.extend_from_slice(&(u32::MAX).to_le_bytes());
        bad.extend_from_slice(b"xxxx");
        assert!(matches!(deframe(&bad), Err(CodecError::FrameTooLarge(_))));
        // A valid frame round-trips.
        let f = frame(b"abc").unwrap();
        let (payload, rest) = deframe(&f).unwrap().unwrap();
        assert_eq!(payload, b"abc");
        assert!(rest.is_empty());
        // A partial frame asks for more bytes without erroring.
        assert!(deframe(&f[..5]).unwrap().is_none());
    }
}
