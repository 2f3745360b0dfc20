//! The [`Layer`] trait, weight units, and parameter-layout helpers.

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;

/// A named, contiguous span of the flat parameter vector.
///
/// Weight units are the granularity at which the pipeline partitioner
/// assigns parameters to stages (§4.1 of the paper: weights are traversed
/// in topological order, with each weight and its bias kept together, and
/// divided evenly into `P` stages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightUnit {
    /// Human-readable name, e.g. `"block2.conv1"`.
    pub name: String,
    /// Offset into the model's flat parameter vector.
    pub offset: usize,
    /// Number of parameters in the unit.
    pub len: usize,
}

impl WeightUnit {
    /// The half-open parameter range `offset..offset + len`.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// A differentiable module with *externally owned* parameters.
///
/// The layer itself is immutable configuration; the parameters live in a
/// flat `&[f32]` owned by the caller, which is what lets asynchronous
/// pipeline trainers run `forward` and `backward` with different weight
/// versions. See the crate-level docs for the contract between the two
/// passes.
pub trait Layer: Send + Sync {
    /// Total number of parameters.
    fn param_len(&self) -> usize;

    /// Writes freshly initialized parameters into `out`
    /// (`out.len() == self.param_len()`).
    fn init_params(&self, out: &mut [f32], rng: &mut StdRng);

    /// Forward pass: computes the output and a cache for `backward`.
    /// Equal bit for bit to [`Layer::forward_no_cache`] on the same
    /// `params` and `x` — every layer runs one computation for both and
    /// only this pass keeps what `backward` needs.
    ///
    /// `params.len()` must equal [`Layer::param_len`].
    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache);

    /// Forward pass without a backward cache: the one inference pass
    /// (evaluation, serving's span pass) and the stash hook of PipeMare
    /// Recompute, whose checkpointed chains run it between segment
    /// boundaries and replay [`Layer::forward`] just before the backward
    /// to rebuild the caches they skipped. It builds no cache and drops
    /// each intermediate as soon as the next one exists. Replay only
    /// reproduces the original activations for layers that are
    /// deterministic in `(params, x)` (dropout draws a fresh mask per
    /// call, in either pass).
    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor;

    /// Backward pass, the one every layer writes: given the upstream
    /// gradient `dy` and the cache from a previous `forward`, writes the
    /// parameter gradient into `grads` and returns the input gradient.
    ///
    /// `grads` (`params.len()` long) arrives zeroed — usually a sub-slice
    /// of the whole model's gradient — and the layer writes its gradient
    /// straight into it, so no gradient-sized buffer is allocated per
    /// layer. Composites hand each sub-layer its own sub-slice and drop
    /// each intermediate gradient once the next layer has consumed it.
    ///
    /// `params` may legitimately differ from the slice used in `forward`
    /// (asynchronous pipeline training); weight-dependent Jacobian products
    /// use `params` while activation-dependent parameter gradients use the
    /// cache.
    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor;

    /// The parameter gradient alone, written into `grads` exactly as
    /// [`Layer::backward_into`] writes it: for the first layer of a
    /// chain, whose input gradient nobody reads. The default runs
    /// `backward_into` and drops the input gradient; a layer whose input
    /// gradient is a product of its own (`dy · Wᵀ`, a transposed
    /// convolution) overrides it to skip that product.
    fn param_grads_into(&self, params: &[f32], cache: &Cache, dy: &Tensor, grads: &mut [f32]) {
        drop(self.backward_into(params, cache, dy, grads));
    }

    /// [`Layer::backward_into`] into a fresh zeroed vector, returned with
    /// the input gradient: for callers that want a layer's gradient on
    /// its own (tests, per-layer timing). Training paths write into the
    /// model's vector instead.
    fn backward(&self, params: &[f32], cache: &Cache, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let mut grads = vec![0.0f32; self.param_len()];
        let dx = self.backward_into(params, cache, dy, &mut grads);
        (dx, grads)
    }

    /// Weight units of this layer in topological order, with offsets
    /// relative to the layer's own parameter slice. Parameterless layers
    /// return an empty vec.
    fn weight_units(&self) -> Vec<WeightUnit>;

    /// Output shape for a given input shape (used to compose models and
    /// validate chains). Layers that cannot infer it may panic.
    fn output_shape(&self, input: &[usize]) -> Vec<usize>;
}

/// Runs `layer` forward: with a cache, [`Layer::forward`], whose cache
/// becomes `cache`'s next child; without one, [`Layer::forward_no_cache`].
/// Composite layers run their sub-layers through it, so one function
/// serves both of their passes.
pub(crate) fn forward_into<L: Layer + ?Sized>(
    layer: &L,
    params: &[f32],
    x: &Tensor,
    cache: Option<&mut Cache>,
) -> Tensor {
    match cache {
        Some(cache) => {
            let (y, child) = layer.forward(params, x);
            cache.children.push(child);
            y
        }
        None => layer.forward_no_cache(params, x),
    }
}

/// Builder assigning contiguous offsets to named parameter blocks; used by
/// composite layers and models to lay out their flat parameter vector.
#[derive(Debug, Default)]
pub struct ParamAlloc {
    len: usize,
    units: Vec<WeightUnit>,
}

impl ParamAlloc {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `len` parameters under `name`, returning the offset.
    pub fn alloc(&mut self, name: &str, len: usize) -> usize {
        let offset = self.len;
        if len > 0 {
            self.units.push(WeightUnit { name: name.to_string(), offset, len });
        }
        self.len += len;
        offset
    }

    /// Reserves space for a sub-layer, merging its (relative) weight units
    /// under `prefix.` and returning the sub-layer's base offset.
    pub fn alloc_layer(&mut self, prefix: &str, layer: &dyn Layer) -> usize {
        let base = self.len;
        for u in layer.weight_units() {
            self.units.push(WeightUnit {
                name: format!("{prefix}.{}", u.name),
                offset: base + u.offset,
                len: u.len,
            });
        }
        self.len += layer.param_len();
        base
    }

    /// Total parameters allocated so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finalizes the layout, returning `(total_len, units)`.
    pub fn finish(self) -> (usize, Vec<WeightUnit>) {
        (self.len, self.units)
    }
}

#[cfg(test)]
/// Checks that `units` tile `0..total` contiguously without gaps/overlap:
/// the layout invariant every model's tests check, and the pipeline
/// partitioner relies on.
pub(crate) fn validate_units(units: &[WeightUnit], total: usize) -> Result<(), String> {
    let mut cursor = 0usize;
    for u in units {
        if u.offset != cursor {
            return Err(format!(
                "unit {} starts at {} but expected {} (gap or overlap)",
                u.name, u.offset, cursor
            ));
        }
        cursor += u.len;
    }
    if cursor != total {
        return Err(format!("units cover {cursor} params but model has {total}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_contiguous_offsets() {
        let mut a = ParamAlloc::new();
        assert_eq!(a.alloc("w1", 10), 0);
        assert_eq!(a.alloc("w2", 5), 10);
        assert_eq!(a.alloc("empty", 0), 15);
        let (len, units) = a.finish();
        assert_eq!(len, 15);
        assert_eq!(units.len(), 2); // zero-length block not recorded
        assert_eq!(units[1].range(), 10..15);
        validate_units(&units, len).unwrap();
    }

    #[test]
    fn validate_units_detects_gap() {
        let units = vec![
            WeightUnit { name: "a".into(), offset: 0, len: 3 },
            WeightUnit { name: "b".into(), offset: 5, len: 2 },
        ];
        assert!(validate_units(&units, 7).is_err());
    }

    #[test]
    fn validate_units_detects_wrong_total() {
        let units = vec![WeightUnit { name: "a".into(), offset: 0, len: 3 }];
        assert!(validate_units(&units, 4).is_err());
        assert!(validate_units(&units, 3).is_ok());
    }
}
