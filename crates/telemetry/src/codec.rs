//! The workspace's one binary encoding (no serde): wire frames
//! (`pipemare_comms`), journal segments ([`crate::journal`]) and
//! checkpoints (`pipemare_core::checkpoint`) are all written by a
//! [`Writer`] and read by a [`Reader`]. It lives here because telemetry
//! is the lowest crate all three already depend on.
//!
//! Little-endian on every host: integers go through
//! `to_le_bytes`/`from_le_bytes` (only in this file) and floats travel as
//! their bit patterns, so NaN payloads, `-0.0` and subnormals round-trip
//! exactly. A *frame* is a `u32` payload length ([`frame_prefix`] /
//! [`frame_len`], capped at [`MAX_FRAME`]) followed by the payload.
//! Slices move in bulk (one reserve, a loop that compiles to a copy), and
//! every count read is checked against the bytes present before anything
//! is sized from it: malformed input is a typed [`CodecError`], never a
//! panic or an allocation the input cannot back.

use std::fmt;

/// Hard cap on a frame's payload length (256 MiB). A corrupted or
/// hostile length prefix is rejected before any allocation.
pub const MAX_FRAME: usize = 1 << 28;

/// A decoding failure. Every malformed input maps to one of these —
/// never a panic — so a corrupted file or an adversarial peer cannot
/// take the process down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the field being read.
    Truncated,
    /// Bytes were left over after a complete message was decoded.
    Trailing(usize),
    /// Unknown message or payload tag.
    BadTag(u8),
    /// A field held an invalid value (bad bool/enum discriminant,
    /// invalid UTF-8, NaN-forbidden slot, ...).
    BadValue(&'static str),
    /// The length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge(u64),
    /// Internal length fields disagree (e.g. sparse nnz > full length).
    LengthMismatch {
        /// What the enclosing header promised.
        expected: usize,
        /// What was actually present.
        got: usize,
    },
    /// A sparse index was out of range or not strictly increasing.
    BadIndex {
        /// The offending index value.
        index: u32,
        /// The dense length it must stay under.
        len: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            CodecError::BadValue(what) => write!(f, "invalid field value: {what}"),
            CodecError::FrameTooLarge(n) => {
                write!(f, "length prefix {n} exceeds MAX_FRAME ({MAX_FRAME})")
            }
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: header says {expected}, payload has {got}")
            }
            CodecError::BadIndex { index, len } => {
                write!(f, "sparse index {index} invalid for dense length {len}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte writer.
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

    /// Appends raw bytes (a file's magic), with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
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
        self.put_f32_run(values);
    }

    /// Appends an f32 slice behind a `u64` count — the checkpoint
    /// formats' vector, which may outgrow a `u32` count.
    pub fn put_long_f32s(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        self.put_f32_run(vs.iter().copied());
    }

    fn put_f32_run(&mut self, values: impl ExactSizeIterator<Item = f32>) {
        self.buf.reserve(4 * values.len());
        self.buf.extend(values.flat_map(|v| v.to_le_bytes()));
    }

    /// Appends a length-prefixed u32 slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u32s_from(vs.iter().copied());
    }

    /// Appends a length-prefixed run of u32 values computed on the fly
    /// — byte for byte what [`Writer::put_u32s`] writes for the
    /// collected values.
    pub fn put_u32s_from(&mut self, values: impl ExactSizeIterator<Item = u32>) {
        self.put_u32(values.len() as u32);
        self.buf.reserve(4 * values.len());
        self.buf.extend(values.flat_map(|v| v.to_le_bytes()));
    }

    /// Appends a length-prefixed u16 slice (bf16 bit patterns).
    pub fn put_u16s(&mut self, vs: &[u16]) {
        self.put_u32(vs.len() as u32);
        self.buf.reserve(2 * vs.len());
        self.buf.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Appends an optional `f64` as a presence byte + bits.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        self.put_bool(v.is_some());
        if let Some(x) = v {
            self.put_f64(x);
        }
    }

    /// Appends an optional `u32` as a presence byte + value.
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        self.put_bool(v.is_some());
        if let Some(x) = v {
            self.put_u32(x);
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

    /// Takes `n` raw bytes (a file's magic).
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.get_bytes(2)?.try_into().expect("sized")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.get_bytes(4)?.try_into().expect("sized")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.get_bytes(8)?.try_into().expect("sized")))
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
        let bytes = self.get_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadValue("invalid UTF-8"))
    }

    /// Takes `n` elements of `width` bytes each.
    fn take_n(&mut self, n: usize, width: usize) -> Result<&'a [u8], CodecError> {
        self.get_bytes(n.checked_mul(width).ok_or(CodecError::Truncated)?)
    }

    /// Reads a `u32` count and takes that many `width`-byte elements.
    fn take_run(&mut self, width: usize) -> Result<&'a [u8], CodecError> {
        let n = self.get_u32()? as usize;
        self.take_n(n, width)
    }

    /// Reads a length-prefixed f32 slice.
    pub fn get_f32s(&mut self) -> Result<Vec<f32>, CodecError> {
        Ok(self.get_f32_run()?.collect())
    }

    /// [`Reader::get_f32s`] as a borrowed iterator, for decoders that
    /// place the values themselves.
    pub fn get_f32_run(&mut self) -> Result<impl ExactSizeIterator<Item = f32> + 'a, CodecError> {
        Ok(le_f32s(self.take_run(4)?))
    }

    /// Reads an f32 slice behind a `u64` count ([`Writer::put_long_f32s`]).
    pub fn get_long_f32s(&mut self) -> Result<Vec<f32>, CodecError> {
        let n = usize::try_from(self.get_u64()?).map_err(|_| CodecError::Truncated)?;
        Ok(le_f32s(self.take_n(n, 4)?).collect())
    }

    /// Reads a length-prefixed f32 slice straight into `dst`.
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthMismatch`] when the encoded count is not
    /// `dst.len()`; `dst` is untouched in that case.
    pub fn get_f32s_into(&mut self, dst: &mut [f32]) -> Result<(), CodecError> {
        let values = self.get_f32_run()?;
        if values.len() != dst.len() {
            return Err(CodecError::LengthMismatch { expected: dst.len(), got: values.len() });
        }
        for (d, v) in dst.iter_mut().zip(values) {
            *d = v;
        }
        Ok(())
    }

    /// Reads a length-prefixed u32 slice.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        Ok(self.get_u32_run()?.collect())
    }

    /// [`Reader::get_u32s`] as a borrowed iterator.
    pub fn get_u32_run(
        &mut self,
    ) -> Result<impl ExactSizeIterator<Item = u32> + Clone + 'a, CodecError> {
        Ok(le_u32s(self.take_run(4)?))
    }

    /// Reads a length-prefixed u16 slice.
    pub fn get_u16s(&mut self) -> Result<Vec<u16>, CodecError> {
        Ok(self.get_u16_run()?.collect())
    }

    /// [`Reader::get_u16s`] as a borrowed iterator.
    pub fn get_u16_run(&mut self) -> Result<impl ExactSizeIterator<Item = u16> + 'a, CodecError> {
        Ok(self.take_run(2)?.chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]])))
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

fn le_u32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + Clone + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

fn le_f32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
    le_u32s(bytes).map(f32::from_bits)
}

/// The `u32` length prefix of a frame carrying `len` payload bytes, or
/// [`CodecError::FrameTooLarge`] past [`MAX_FRAME`].
pub fn frame_prefix(len: usize) -> Result<[u8; 4], CodecError> {
    Ok((within_cap(len)? as u32).to_le_bytes())
}

/// The payload length a frame's prefix announces, or
/// [`CodecError::FrameTooLarge`] past [`MAX_FRAME`].
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, CodecError> {
    within_cap(u32::from_le_bytes(prefix) as usize)
}

fn within_cap(len: usize) -> Result<usize, CodecError> {
    (len <= MAX_FRAME).then_some(len).ok_or(CodecError::FrameTooLarge(len as u64))
}

/// Prepends the `u32` length prefix to an encoded payload, producing the
/// exact byte sequence a transport puts on the wire.
///
/// # Errors
///
/// [`CodecError::FrameTooLarge`] when the payload exceeds [`MAX_FRAME`].
pub fn frame(payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    Ok([&frame_prefix(payload.len())?[..], payload].concat())
}

/// A deframed message: the frame payload and the remaining bytes.
pub type Deframed<'a> = Option<(&'a [u8], &'a [u8])>;

/// Splits one frame off the front of `bytes`: returns `(payload, rest)`,
/// or `None` when more bytes are needed.
///
/// # Errors
///
/// [`CodecError::FrameTooLarge`] when the length prefix exceeds
/// [`MAX_FRAME`].
pub fn deframe(bytes: &[u8]) -> Result<Deframed<'_>, CodecError> {
    let Some((prefix, rest)) = bytes.split_first_chunk() else {
        return Ok(None);
    };
    let len = frame_len(*prefix)?;
    Ok((rest.len() >= len).then(|| rest.split_at(len)))
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
        w.put_long_f32s(&[f32::from_bits(0x7fc0_1234), f32::from_bits(1)]);
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
        let long: Vec<u32> = r.get_long_f32s().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(long, [0x7fc0_1234, 1]);
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
    fn counts_beyond_the_bytes_present_are_refused() {
        for n in [1u64 << 40, 1 << 62, u64::MAX] {
            let mut w = Writer::new();
            w.put_u64(n);
            w.put_f32(1.0);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).get_long_f32s(), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn frame_rejects_oversize_and_deframe_rejects_bad_prefix() {
        assert!(matches!(frame_prefix(MAX_FRAME + 1), Err(CodecError::FrameTooLarge(_))));
        assert!(matches!(frame_len([0xff; 4]), Err(CodecError::FrameTooLarge(_))));
        let mut bad = vec![0xff; 4];
        bad.extend_from_slice(b"xxxx");
        assert!(matches!(deframe(&bad), Err(CodecError::FrameTooLarge(_))));
        // A valid frame round-trips.
        let f = frame(b"abc").unwrap();
        assert_eq!(f, [3, 0, 0, 0, b'a', b'b', b'c']);
        let (payload, rest) = deframe(&f).unwrap().unwrap();
        assert_eq!(payload, b"abc");
        assert!(rest.is_empty());
        // A partial frame asks for more bytes without erroring.
        assert!(deframe(&f[..5]).unwrap().is_none());
        assert!(deframe(&f[..3]).unwrap().is_none());
    }
}
