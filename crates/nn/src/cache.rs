//! Forward-pass caches carried from `forward` to `backward`.

use pipemare_tensor::{bf16, Tensor};

/// A tensor stashed in bf16: half the bytes of an f32 stash.
///
/// Encoding rounds to nearest-even; decoding widens the stored bits
/// exactly, so a stash round-trips to the same `Tensor` every time the
/// same value is encoded — quantization is deterministic, only lossy.
/// Used by checkpointed forwards ([`crate::Sequential::forward_checkpointed_with`])
/// to halve the activation footprint of segment-boundary stashes.
#[derive(Clone, Debug)]
pub struct Bf16Stash {
    bits: Vec<u16>,
    shape: Vec<usize>,
}

impl Bf16Stash {
    /// Quantizes a tensor to bf16 storage (round-to-nearest-even).
    pub fn encode(t: &Tensor) -> Self {
        Bf16Stash { bits: bf16::encode_slice(t.data()), shape: t.shape().to_vec() }
    }

    /// Widens the stored bits back to an f32 tensor (exact).
    pub fn decode(&self) -> Tensor {
        Tensor::from_vec(bf16::decode_slice(&self.bits), &self.shape)
    }

    /// Number of stashed elements.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the stash holds no elements.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bytes of storage held (2 per element).
    pub fn bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u16>()
    }
}

/// Activations and metadata saved by a layer's forward pass for use in its
/// backward pass.
///
/// A `Cache` is a small tree: leaf tensors/scalars for a simple layer, plus
/// child caches for composite layers ([`crate::Sequential`], attention
/// blocks, whole models).
#[derive(Clone, Debug, Default)]
pub struct Cache {
    /// Saved tensors (inputs, intermediate activations, masks, ...).
    pub tensors: Vec<Tensor>,
    /// Tensors stashed in bf16 (reduced-precision checkpoint stashes).
    pub bf16_tensors: Vec<Bf16Stash>,
    /// Saved scalars (normalization statistics, lengths, ...).
    pub scalars: Vec<f32>,
    /// Saved index data (argmax positions, token ids, ...).
    pub indices: Vec<usize>,
    /// Child caches for composite layers, in forward order.
    pub children: Vec<Cache>,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Cache::default()
    }

    /// Creates a cache holding the given tensors.
    pub fn with_tensors(tensors: Vec<Tensor>) -> Self {
        Cache { tensors, ..Default::default() }
    }

    /// Pushes a tensor and returns `self` for chaining.
    pub fn push(mut self, t: Tensor) -> Self {
        self.tensors.push(t);
        self
    }

    /// Borrow the `i`-th saved tensor.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn tensor(&self, i: usize) -> &Tensor {
        &self.tensors[i]
    }

    /// Borrow the `i`-th child cache.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn child(&self, i: usize) -> &Cache {
        &self.children[i]
    }

    /// Bytes of activation storage held by this cache and all its
    /// children (tensor payloads only; scalars and indices are noise).
    /// bf16 stashes count 2 bytes per element, f32 tensors 4. This is
    /// what checkpointed forwards shrink and what the live per-stage
    /// activation gauges report.
    pub fn activation_bytes(&self) -> usize {
        self.tensors.iter().map(|t| t.len() * std::mem::size_of::<f32>()).sum::<usize>()
            + self.bf16_tensors.iter().map(|s| s.bytes()).sum::<usize>()
            + self.children.iter().map(|c| c.activation_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read() {
        let c = Cache::with_tensors(vec![Tensor::full(&[2], 1.0)]).push(Tensor::zeros(&[3]));
        assert_eq!(c.tensor(0).len(), 2);
        assert_eq!(c.tensor(1).len(), 3);
        let mut parent = Cache::new();
        parent.children.push(c);
        assert_eq!(parent.child(0).tensors.len(), 2);
    }

    #[test]
    fn accounting_recurses_into_children() {
        let leaf = Cache::with_tensors(vec![Tensor::full(&[2, 3], 1.0)]);
        let mut parent = Cache::with_tensors(vec![Tensor::zeros(&[4])]);
        parent.children.push(leaf);
        parent.children.push(Cache::new());
        assert_eq!(parent.activation_bytes(), (6 + 4) * 4);
        assert_eq!(Cache::new().activation_bytes(), 0);
    }

    #[test]
    fn bf16_stash_halves_bytes_and_decodes_deterministically() {
        let t = Tensor::from_vec(vec![1.0, -2.5, 0.333, f32::MIN_POSITIVE], &[2, 2]);
        let s = Bf16Stash::encode(&t);
        assert_eq!(s.len(), 4);
        assert_eq!(s.bytes(), 8);
        let d = s.decode();
        assert_eq!(d.shape(), t.shape());
        // bf16-representable values survive exactly; the rest round
        // deterministically (re-encoding the decode is the identity).
        assert_eq!(d.data()[0], 1.0);
        assert_eq!(d.data()[1], -2.5);
        assert_eq!(Bf16Stash::encode(&d).decode(), d);
        let mut c = Cache::new();
        c.bf16_tensors.push(s);
        c.tensors.push(t);
        assert_eq!(c.activation_bytes(), 4 * 4 + 4 * 2);
    }
}
