//! The chain combinator [`Sequential`] and the splits it runs.

use std::ops::Range;

use rand::rngs::StdRng;

use pipemare_tensor::{StoragePrecision, Tensor};

use crate::cache::{Bf16Stash, Cache};
use crate::layer::{forward_into, Layer, ParamAlloc, WeightUnit};
use crate::model::ServeSplit;

/// A chain of layers applied in order; parameters are concatenated.
/// Every pass runs over a [`ServeSplit`]: the whole chain, a recompute
/// segment, a serving stage or a training stage.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    names: Vec<String>,
    /// Layer `i` owns parameters `offsets[i]..offsets[i + 1]`; the last
    /// entry is the chain's parameter count.
    offsets: Vec<usize>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new(), names: Vec::new(), offsets: vec![0] }
    }

    /// Appends a layer under an auto-generated name.
    pub fn push(self, layer: impl Layer + 'static) -> Self {
        let name = format!("l{}", self.layers.len());
        self.push_named(&name, layer)
    }

    /// Appends a layer under an explicit name (used in weight-unit names).
    pub fn push_named(mut self, name: &str, layer: impl Layer + 'static) -> Self {
        self.offsets.push(self.param_len() + layer.param_len());
        self.names.push(name.to_string());
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The split holding layers `lo..hi`.
    fn span(&self, lo: usize, hi: usize) -> ServeSplit {
        let (param_lo, param_hi) = (self.offsets[lo], self.offsets[hi]);
        ServeSplit { layer_lo: lo, layer_hi: hi, param_lo, param_hi }
    }

    /// The split holding every layer.
    pub(crate) fn whole(&self) -> ServeSplit {
        self.span(0, self.layers.len())
    }

    /// Layer `i`'s range within `split`'s own parameter slice.
    fn local(&self, split: &ServeSplit, i: usize) -> Range<usize> {
        self.offsets[i] - split.param_lo..self.offsets[i + 1] - split.param_lo
    }

    /// Checks that `split` is a span of this chain and `params` its slice.
    fn check(&self, params: &[f32], split: &ServeSplit) {
        let own = params.len() + split.param_lo == split.param_hi;
        assert!(own && self.span(split.layer_lo, split.layer_hi) == *split, "bad split {split:?}");
    }

    /// Forward through the layers of `split`, caching what
    /// [`Sequential::backward_split`] needs. `params` is the split's own
    /// slice, `full[split.param_lo..split.param_hi]`.
    pub fn forward_split(&self, params: &[f32], split: &ServeSplit, x: &Tensor) -> (Tensor, Cache) {
        let mut cache = Cache::new();
        let y = self.run_span(params, split, x, Some(&mut cache));
        (y, cache)
    }

    /// The one layer loop of both passes: each layer's output replaces
    /// its input, and with a cache each layer's cache is pushed onto it.
    fn run_span(
        &self,
        params: &[f32],
        split: &ServeSplit,
        x: &Tensor,
        mut cache: Option<&mut Cache>,
    ) -> Tensor {
        self.check(params, split);
        let mut cur: Option<Tensor> = None;
        for i in split.layer_lo..split.layer_hi {
            let (layer, p) = (self.layers[i].as_ref(), &params[self.local(split, i)]);
            cur = Some(forward_into(layer, p, cur.as_ref().unwrap_or(x), cache.as_deref_mut()));
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Backward through the layers of `split` from a
    /// [`Sequential::forward_split`] cache: overwrites `grads` (the
    /// split's own slice, like `params`) with the parameter gradient and
    /// returns the input gradient. `params` may differ from the forward's
    /// weights.
    pub fn backward_split(
        &self,
        params: &[f32],
        split: &ServeSplit,
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        grads.fill(0.0);
        self.run_backward(params, split, cache, dy, grads, true).expect("an input gradient")
    }

    /// The one cached backward loop: each layer writes its gradient into
    /// its range of `grads` (zeroed on entry) and its input gradient
    /// replaces, and frees, the one it consumed. Without `input_grad` the
    /// split's first layer computes only its parameter gradient
    /// ([`Layer::param_grads_into`]) and there is no input gradient.
    fn run_backward(
        &self,
        params: &[f32],
        split: &ServeSplit,
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor> {
        self.check(params, split);
        assert_eq!(grads.len(), params.len(), "grads must be the split's own");
        let mut cur: Option<Tensor> = None;
        for i in (split.layer_lo..split.layer_hi).rev() {
            let (range, c) = (self.local(split, i), cache.child(i - split.layer_lo));
            let (layer, p, g) = (&self.layers[i], &params[range.clone()], &mut grads[range]);
            let d = cur.as_ref().unwrap_or(dy);
            if i == split.layer_lo && !input_grad {
                layer.param_grads_into(p, c, d, g);
                return None;
            }
            cur = Some(layer.backward_into(p, c, d, g));
        }
        input_grad.then(|| cur.unwrap_or_else(|| dy.clone()))
    }

    /// Inference-only forward through `split`: chains every layer's
    /// [`Layer::forward_no_cache`], building no activation caches at all.
    /// Bit-identical to [`Sequential::forward_split`]'s output on the
    /// same weights and inputs: both run one layer loop. `params` is the
    /// split's own slice.
    pub fn forward_inference_span(&self, params: &[f32], split: &ServeSplit, x: &Tensor) -> Tensor {
        self.run_span(params, split, x, None)
    }

    /// Partitions the chain into `stages` contiguous layer spans,
    /// greedily balanced by parameter count (parameter-free layers ride
    /// with their predecessors). Always returns exactly `stages`
    /// non-overlapping splits covering every layer; trailing splits may
    /// be empty when the chain has fewer layers than stages.
    pub fn serve_splits(&self, stages: usize) -> Vec<ServeSplit> {
        assert!(stages >= 1, "need at least one stage");
        let n = self.layers.len();
        let mut splits = Vec::with_capacity(stages);
        let mut layer = 0usize;
        for s in 0..stages {
            let lo = layer;
            let remaining = stages - s;
            if remaining == 1 {
                layer = n;
            } else {
                // Take this stage's fair share of the remaining
                // parameters, but leave at least one layer for each
                // later stage.
                let budget = (self.param_len() - self.offsets[lo]).div_ceil(remaining);
                let max_hi = n.saturating_sub(remaining - 1).max(lo);
                let mut taken = 0usize;
                while layer < max_hi {
                    let l_params = self.layers[layer].param_len();
                    // Stop before a layer that would overshoot the
                    // budget by more than stopping now undershoots it
                    // (but always take at least one layer).
                    if taken > 0
                        && taken + l_params > budget
                        && taken + l_params - budget > budget - taken
                    {
                        break;
                    }
                    taken += l_params;
                    layer += 1;
                    // Drag along parameter-free layers (activations) so
                    // a stage boundary never lands mid-block.
                    while layer < max_hi && self.layers[layer].param_len() == 0 {
                        layer += 1;
                    }
                    if taken >= budget {
                        break;
                    }
                }
            }
            splits.push(self.span(lo, layer));
        }
        splits
    }

    /// Maps a stage partition's parameter ranges (as
    /// `StagePartition::ranges` gives them) onto layer spans, one split
    /// per range. A parameter-free layer stays with the split before it,
    /// as in [`Sequential::serve_splits`]. Returns `None` when a cut falls
    /// inside a layer or the ranges do not tile the chain's parameters.
    pub fn splits_at(&self, ranges: &[(usize, usize)]) -> Option<Vec<ServeSplit>> {
        let (n, mut lo) = (self.layers.len(), 0);
        let mut splits = Vec::with_capacity(ranges.len());
        for (s, &(_, cut)) in ranges.iter().enumerate() {
            // A cut opens the first layer with parameters at its offset.
            let opens = |i: &usize| self.offsets[*i] == cut && self.offsets[i + 1] > cut;
            let hi = if s + 1 < ranges.len() { (lo..n).find(opens)? } else { n };
            splits.push(self.span(lo, hi));
            lo = hi;
        }
        splits.iter().map(|s| (s.param_lo, s.param_hi)).eq(ranges.iter().copied()).then_some(splits)
    }

    /// Forward pass that stashes only each segment's input (layers `0, S,
    /// 2S, ...`), then runs the segment cache-free — the model-side half of
    /// PipeMare Recompute (App. D); the loss's backward replays each
    /// segment (`recomputed_into`). The cache holds `indices = [segment]` and one
    /// stash per segment, stored at `stash` precision: the forward runs in
    /// f32 either way, and a bf16 replay starts from the rounded input
    /// (the discrepancy the health monitor's `quant_eps` accounts for).
    pub fn forward_checkpointed_with(
        &self,
        params: &[f32],
        x: &Tensor,
        segment: usize,
        stash: StoragePrecision,
    ) -> (Tensor, Cache) {
        assert!(segment >= 1, "segment size must be at least 1");
        let mut cache = Cache::new();
        cache.indices.push(segment);
        let mut cur: Option<Tensor> = None;
        for lo in (0..self.layers.len()).step_by(segment) {
            let seg = self.span(lo, (lo + segment).min(self.layers.len()));
            let h = cur.as_ref().unwrap_or(x);
            match stash {
                StoragePrecision::F32 => cache.tensors.push(h.clone()),
                StoragePrecision::Bf16 => cache.bf16_tensors.push(Bf16Stash::encode(h)),
            }
            cur = Some(self.forward_inference_span(&params[seg.param_lo..seg.param_hi], &seg, h));
        }
        (cur.unwrap_or_else(|| x.clone()), cache)
    }

    /// Backward for a [`Sequential::forward_checkpointed_with`] cache into
    /// `grads` (zeroed on entry), with distinct weight versions for the
    /// replay and the gradient: each segment is re-run forward with
    /// `replay_params` (the pipeline's recompute-time weights, delayed by
    /// τ_recomp relative to the original forward), then differentiated with
    /// `params` under the usual async backward contract. With
    /// `replay_params == params ==` the forward's weights, and deterministic
    /// layers, the result is bit-identical to the plain stash-everything
    /// [`Layer::backward`]. Without `input_grad` the first segment runs as
    /// [`Sequential::run_backward`] does without it, and there is no input
    /// gradient.
    pub(crate) fn recomputed_into(
        &self,
        replay_params: &[f32],
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
        input_grad: bool,
    ) -> Option<Tensor> {
        let segment = cache.indices[0];
        let n = self.layers.len();
        // The stashes live in exactly one of the two stores, depending on
        // the precision the checkpointed forward ran with.
        let bf16 = !cache.bf16_tensors.is_empty();
        let n_stashes = if bf16 { cache.bf16_tensors.len() } else { cache.tensors.len() };
        assert_eq!(n_stashes, n.div_ceil(segment), "checkpoint cache does not match chain layout");
        let mut cur: Option<Tensor> = None;
        for seg_idx in (0..n_stashes).rev() {
            let seg = self.span(seg_idx * segment, ((seg_idx + 1) * segment).min(n));
            let range = seg.param_lo..seg.param_hi;
            // Replay the segment from its stashed boundary input (widened
            // exactly if the stash is bf16), then differentiate it with
            // the gradient-time weights.
            let widened = bf16.then(|| cache.bf16_tensors[seg_idx].decode());
            let h = widened.as_ref().unwrap_or_else(|| cache.tensor(seg_idx));
            let (_, seg_cache) = self.forward_split(&replay_params[range.clone()], &seg, h);
            let (p, g, d) = (&params[range.clone()], &mut grads[range], cur.as_ref().unwrap_or(dy));
            let input_grad = input_grad || seg_idx > 0;
            cur = self.run_backward(p, &seg, &seg_cache, d, g, input_grad);
        }
        input_grad.then(|| cur.unwrap_or_else(|| dy.clone()))
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn param_len(&self) -> usize {
        self.offsets[self.layers.len()]
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        for (i, l) in self.layers.iter().enumerate() {
            l.init_params(&mut out[self.offsets[i]..self.offsets[i + 1]], rng);
        }
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        self.forward_split(params, &self.whole(), x)
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.forward_inference_span(params, &self.whole(), x)
    }

    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let dx = self.run_backward(params, &self.whole(), cache, dy, grads, true);
        dx.expect("an input gradient")
    }

    fn param_grads_into(&self, params: &[f32], cache: &Cache, dy: &Tensor, grads: &mut [f32]) {
        self.run_backward(params, &self.whole(), cache, dy, grads, false);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        let mut alloc = ParamAlloc::new();
        for (l, name) in self.layers.iter().zip(self.names.iter()) {
            alloc.alloc_layer(name, l.as_ref());
        }
        alloc.finish().1
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut shape = input.to_vec();
        for l in &self.layers {
            shape = l.output_shape(&shape);
        }
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::gradcheck::check_layer_gradients;
    use crate::linear::Linear;

    /// `recomputed_into` into a fresh gradient, with the input gradient.
    fn backward_recomputed(
        chain: &Sequential,
        replay_params: &[f32],
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
    ) -> (Tensor, Vec<f32>) {
        let mut grads = vec![0.0f32; chain.param_len()];
        let dx = chain.recomputed_into(replay_params, params, cache, dy, &mut grads, true);
        (dx.unwrap(), grads)
    }

    #[test]
    fn chain_forward_matches_manual_composition() {
        use crate::gradcheck::init_layer;
        use rand::SeedableRng;
        let chain = Sequential::new()
            .push(Linear::new(3, 4))
            .push(Activation::relu())
            .push(Linear::new(4, 2));
        let mut rng = StdRng::seed_from_u64(17);
        let params = init_layer(&chain, &mut rng);
        let x = Tensor::randn(&[5, 3], &mut rng);
        let (y, _) = chain.forward(&params, &x);
        // Manual composition with the same parameter slices.
        let l1 = Linear::new(3, 4);
        let l2 = Linear::new(4, 2);
        let (h, _) = l1.forward(&params[..l1.param_len()], &x);
        let (y2, _) = l2.forward(&params[l1.param_len()..], &h.relu());
        assert_eq!(y, y2);
    }

    #[test]
    fn serve_splits_tile_layers_and_params() {
        use crate::gradcheck::init_layer;
        use rand::SeedableRng;
        let chain = Sequential::new()
            .push(Linear::new(4, 8))
            .push(Activation::relu())
            .push(Linear::new(8, 8))
            .push(Activation::relu())
            .push(Linear::new(8, 2));
        let mut rng = StdRng::seed_from_u64(61);
        let params = init_layer(&chain, &mut rng);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let full = chain.forward_inference_span(&params, &chain.whole(), &x);
        assert_eq!(full, chain.forward(&params, &x).0);
        for stages in 1..=8 {
            let splits = chain.serve_splits(stages);
            assert_eq!(splits.len(), stages);
            // Contiguous tiling of both the layer list and the params.
            assert_eq!(splits[0].layer_lo, 0);
            assert_eq!(splits[0].param_lo, 0);
            assert_eq!(splits.last().unwrap().layer_hi, chain.len());
            assert_eq!(splits.last().unwrap().param_hi, chain.param_len());
            for w in splits.windows(2) {
                assert_eq!(w[0].layer_hi, w[1].layer_lo);
                assert_eq!(w[0].param_hi, w[1].param_lo);
            }
            if stages <= 3 {
                // Enough linear layers: every stage holds parameters.
                assert!(splits.iter().all(|s| s.param_hi > s.param_lo), "{splits:?}");
            }
            let mut cur = x.clone();
            for sp in &splits {
                cur = chain.forward_inference_span(&params[sp.param_lo..sp.param_hi], sp, &cur);
            }
            assert_eq!(cur, full, "stages={stages}");
        }
    }

    #[test]
    fn chain_gradcheck() {
        let chain = Sequential::new()
            .push(Linear::new(3, 5))
            .push(Activation::tanh())
            .push(Linear::new(5, 2));
        check_layer_gradients(&chain, &[4, 3], 51, 5e-2);
    }

    #[test]
    fn weight_units_are_contiguous() {
        let chain = Sequential::new()
            .push_named("fc1", Linear::new(3, 4))
            .push(Activation::relu())
            .push_named("fc2", Linear::new(4, 2));
        let units = chain.weight_units();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].name, "fc1.linear");
        assert_eq!(units[0].range(), 0..16);
        assert_eq!(units[1].range(), 16..16 + 10);
        crate::layer::validate_units(&units, chain.param_len()).unwrap();
    }

    #[test]
    fn checkpointed_forward_backward_match_plain() {
        use crate::gradcheck::init_layer;
        use rand::SeedableRng;
        let chain = Sequential::new()
            .push(Linear::new(3, 6))
            .push(Activation::tanh())
            .push(Linear::new(6, 5))
            .push(Activation::relu())
            .push(Linear::new(5, 2));
        let mut rng = StdRng::seed_from_u64(23);
        let params = init_layer(&chain, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let dy = Tensor::randn(&[4, 2], &mut rng);
        let (y_plain, c_plain) = chain.forward(&params, &x);
        let (dx_plain, g_plain) = chain.backward(&params, &c_plain, &dy);
        // Every segment size, including S=1 (stash every input) and
        // S > len (single segment), reproduces the plain pass exactly.
        for segment in 1..=chain.len() + 1 {
            let (y, c) =
                chain.forward_checkpointed_with(&params, &x, segment, StoragePrecision::F32);
            assert_eq!(y, y_plain, "S={segment}");
            assert_eq!(c.tensors.len(), chain.len().div_ceil(segment));
            let (dx, g) = backward_recomputed(&chain, &params, &params, &c, &dy);
            assert_eq!(dx, dx_plain, "S={segment}");
            assert_eq!(g, g_plain, "S={segment}");
        }
    }

    #[test]
    fn checkpointed_cache_is_smaller() {
        use crate::gradcheck::init_layer;
        use rand::SeedableRng;
        let chain = Sequential::new()
            .push(Linear::new(8, 8))
            .push(Activation::tanh())
            .push(Linear::new(8, 8))
            .push(Activation::tanh())
            .push(Linear::new(8, 8))
            .push(Activation::tanh());
        let mut rng = StdRng::seed_from_u64(29);
        let params = init_layer(&chain, &mut rng);
        let x = Tensor::randn(&[16, 8], &mut rng);
        let (_, full) = chain.forward(&params, &x);
        let (_, ckpt) = chain.forward_checkpointed_with(&params, &x, 3, StoragePrecision::F32);
        assert!(
            ckpt.activation_bytes() < full.activation_bytes(),
            "checkpointed cache {} B should undercut stash-everything {} B",
            ckpt.activation_bytes(),
            full.activation_bytes()
        );
        assert_eq!(ckpt.tensors.len(), 2);
    }

    #[test]
    fn bf16_stashes_halve_bytes_and_stay_deterministic() {
        use crate::gradcheck::init_layer;
        use rand::SeedableRng;
        let chain = Sequential::new()
            .push(Linear::new(8, 16))
            .push(Activation::tanh())
            .push(Linear::new(16, 16))
            .push(Activation::tanh())
            .push(Linear::new(16, 4));
        let mut rng = StdRng::seed_from_u64(37);
        let params = init_layer(&chain, &mut rng);
        let x = Tensor::randn(&[8, 8], &mut rng);
        let dy = Tensor::randn(&[8, 4], &mut rng);
        let (y32, c32) = chain.forward_checkpointed_with(&params, &x, 2, StoragePrecision::F32);
        let (y16, c16) = chain.forward_checkpointed_with(&params, &x, 2, StoragePrecision::Bf16);
        // The forward itself runs in f32 either way — only stashes shrink.
        assert_eq!(y16, y32);
        assert!(
            c16.activation_bytes() * 2 <= c32.activation_bytes() + 4,
            "bf16 stash {} B should be half of f32 {} B",
            c16.activation_bytes(),
            c32.activation_bytes()
        );
        // Quantized replay is deterministic: same cache, same gradients,
        // bit for bit — and close to the f32 gradients (bf16 keeps ~8
        // mantissa bits).
        let (dx32, g32) = backward_recomputed(&chain, &params, &params, &c32, &dy);
        let (dx_a, g_a) = backward_recomputed(&chain, &params, &params, &c16, &dy);
        let (dx_b, g_b) = backward_recomputed(&chain, &params, &params, &c16, &dy);
        assert_eq!(dx_a, dx_b);
        assert_eq!(g_a, g_b);
        let rel_norm = |a: &[f32], b: &[f32]| {
            let diff: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            let base: f32 = b.iter().map(|y| y * y).sum();
            (diff / base).sqrt()
        };
        assert!(
            rel_norm(&g_a, &g32) < 0.05,
            "bf16 gradients drifted too far: rel ‖Δg‖ = {}",
            rel_norm(&g_a, &g32)
        );
        assert!(rel_norm(dx_a.data(), dx32.data()) < 0.05);
    }

    #[test]
    fn recomputed_backward_uses_replay_weights_for_activations() {
        use crate::gradcheck::init_layer;
        use rand::SeedableRng;
        let chain = Sequential::new()
            .push(Linear::new(3, 4))
            .push(Activation::tanh())
            .push(Linear::new(4, 2));
        let mut rng = StdRng::seed_from_u64(31);
        let params = init_layer(&chain, &mut rng);
        let newer: Vec<f32> = params.iter().map(|p| p * 1.1 + 0.01).collect();
        let x = Tensor::randn(&[4, 3], &mut rng);
        let dy = Tensor::randn(&[4, 2], &mut rng);
        let (_, ckpt) = chain.forward_checkpointed_with(&params, &x, 2, StoragePrecision::F32);
        // Replaying with the forward's own weights matches the plain
        // async backward (stale activations, newer gradient weights)...
        let (_, c_plain) = chain.forward(&params, &x);
        let (dx_async, g_async) = chain.backward(&newer, &c_plain, &dy);
        let (dx, g) = backward_recomputed(&chain, &params, &newer, &ckpt, &dy);
        assert_eq!(dx, dx_async);
        assert_eq!(g, g_async);
        // ...while replaying with drifted weights changes the result
        // (that drift is exactly what τ_recomp measures).
        let (dx2, g2) = backward_recomputed(&chain, &newer, &newer, &ckpt, &dy);
        assert!(dx2 != dx_async || g2 != g_async);
    }
}
