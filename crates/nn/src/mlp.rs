//! A configurable multi-layer perceptron classifier.

use rand::rngs::StdRng;

use pipemare_tensor::{StoragePrecision, Tensor};

use crate::activation::Activation;
use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};
use crate::linear::Linear;
use crate::loss::{chain_xent_backward, chain_xent_forward};
use crate::model::{ImageBatch, InferModel, ServeSplit, TrainModel};
use crate::sequential::Sequential;

/// A ReLU MLP classifier over flattened inputs.
///
/// Used by the quickstart example and as a fast model in tests; the input
/// batch is [`ImageBatch`] with images flattened internally.
pub struct Mlp {
    chain: Sequential,
    in_features: usize,
    /// When set, `forward_loss` stashes activations only every
    /// `recompute_segment` layers and `backward` replays each segment
    /// (PipeMare Recompute). All Mlp layers are deterministic, so the
    /// checkpointed path is bit-identical to stash-everything.
    recompute_segment: Option<usize>,
    /// Storage precision of the checkpoint stashes (f32 by default;
    /// bf16 halves the stash bytes at the cost of quantized replays).
    /// Only meaningful when `recompute_segment` is set.
    stash_precision: StoragePrecision,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g.
    /// `Mlp::new(&[784, 128, 64, 10])` for a 2-hidden-layer classifier.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize]) -> Self {
        assert!(widths.len() >= 2, "Mlp needs at least input and output widths");
        let mut chain = Sequential::new();
        for i in 0..widths.len() - 1 {
            chain = chain.push_named(&format!("fc{i}"), Linear::new(widths[i], widths[i + 1]));
            if i + 2 < widths.len() {
                chain = chain.push(Activation::relu());
            }
        }
        Mlp {
            chain,
            in_features: widths[0],
            recompute_segment: None,
            stash_precision: StoragePrecision::F32,
        }
    }

    /// Enables activation recomputation with the given segment size
    /// (in chain layers, counting the interleaved activations).
    pub fn with_recompute(mut self, segment: usize) -> Self {
        assert!(segment >= 1, "segment size must be at least 1");
        self.recompute_segment = Some(segment);
        self
    }

    /// Sets the storage precision of checkpoint stashes (see
    /// [`crate::Sequential::forward_checkpointed_with`]). Only takes
    /// effect together with [`Mlp::with_recompute`].
    pub fn with_stash_precision(mut self, precision: StoragePrecision) -> Self {
        self.stash_precision = precision;
        self
    }

    /// Computes class logits for a `(B, in)` or `(B, C, H, W)` input:
    /// [`InferModel::infer`] on the prepared input.
    pub fn logits(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.infer(params, &self.prepare_input(x))
    }

    /// Top-1 accuracy on a labelled batch.
    pub fn accuracy(&self, params: &[f32], batch: &ImageBatch) -> f32 {
        let preds = self.logits(params, &batch.x).argmax_rows();
        let correct = preds.iter().zip(batch.y.iter()).filter(|(p, y)| p == y).count();
        correct as f32 / batch.y.len() as f32
    }

    /// Output classes (width of the last linear layer).
    pub fn out_features(&self) -> usize {
        self.chain.output_shape(&[1, self.in_features])[1]
    }

    /// Number of parameters. Inherent so call sites stay unambiguous
    /// now that both [`TrainModel`] and [`InferModel`] define it.
    pub fn param_len(&self) -> usize {
        self.chain.param_len()
    }

    /// The layer chain (linear layers with ReLUs between them).
    pub fn chain(&self) -> &Sequential {
        &self.chain
    }
}

impl InferModel for Mlp {
    fn param_len(&self) -> usize {
        self.chain.param_len()
    }

    fn input_len(&self) -> usize {
        self.in_features
    }

    fn output_len(&self) -> usize {
        self.out_features()
    }

    fn prepare_input(&self, x: &Tensor) -> Tensor {
        let b = x.shape()[0];
        let flat = x.reshape(&[b, x.len() / b]);
        assert_eq!(flat.shape()[1], self.in_features, "Mlp: input feature mismatch");
        flat
    }

    fn infer(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.chain.forward_inference_span(params, &self.chain.whole(), x)
    }

    fn serve_splits(&self, stages: usize) -> Vec<ServeSplit> {
        self.chain.serve_splits(stages)
    }

    fn infer_split(&self, params: &[f32], split: &ServeSplit, x: &Tensor) -> Tensor {
        self.chain.forward_inference_span(&params[split.param_lo..split.param_hi], split, x)
    }
}

impl TrainModel for Mlp {
    type Batch = ImageBatch;

    fn param_len(&self) -> usize {
        self.chain.param_len()
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.chain.init_params(out, rng);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        self.chain.weight_units()
    }

    fn forward_loss(&self, params: &[f32], batch: &ImageBatch) -> (f32, Cache) {
        let flat = self.prepare_input(&batch.x);
        let recompute = self.recompute_segment.map(|seg| (seg, self.stash_precision));
        chain_xent_forward(&self.chain, params, &flat, &batch.y, recompute)
    }

    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32> {
        chain_xent_backward(&self.chain, params, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy_batch(rng: &mut StdRng) -> ImageBatch {
        // Two well-separated Gaussian blobs in 4-D.
        let mut x = Tensor::randn(&[16, 4], rng);
        let mut y = Vec::new();
        for i in 0..16 {
            let label = i % 2;
            for j in 0..4 {
                x.data_mut()[i * 4 + j] += if label == 0 { 3.0 } else { -3.0 };
            }
            y.push(label);
        }
        ImageBatch { x, y }
    }

    #[test]
    fn sgd_learns_separable_blobs() {
        let model = Mlp::new(&[4, 8, 2]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let batch = toy_batch(&mut rng);
        let (loss0, _) = model.forward_loss(&params, &batch);
        for _ in 0..100 {
            let (_, cache) = model.forward_loss(&params, &batch);
            let grads = model.backward(&params, &cache);
            for (p, g) in params.iter_mut().zip(grads.iter()) {
                *p -= 0.1 * g;
            }
        }
        let (loss1, _) = model.forward_loss(&params, &batch);
        assert!(loss1 < loss0 * 0.2, "loss did not drop: {loss0} -> {loss1}");
        assert!(model.accuracy(&params, &batch) > 0.95);
    }

    #[test]
    fn recompute_path_is_bit_identical() {
        let plain = Mlp::new(&[4, 8, 6, 2]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = vec![0.0; plain.param_len()];
        plain.init_params(&mut params, &mut rng);
        let batch = toy_batch(&mut rng);
        let (loss0, cache0) = plain.forward_loss(&params, &batch);
        let grads0 = plain.backward(&params, &cache0);
        for seg in 1..=5 {
            let rc = Mlp::new(&[4, 8, 6, 2]).with_recompute(seg);
            let (loss, cache) = rc.forward_loss(&params, &batch);
            assert_eq!(loss.to_bits(), loss0.to_bits(), "seg={seg}");
            assert!(cache.activation_bytes() <= cache0.activation_bytes());
            let grads = rc.backward(&params, &cache);
            assert!(
                grads.iter().zip(grads0.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "seg={seg}: recompute gradients diverge from stash-everything"
            );
        }
    }

    #[test]
    fn inference_forward_is_bit_identical_to_training_path() {
        let model = Mlp::new(&[6, 16, 12, 3]);
        let mut rng = StdRng::seed_from_u64(41);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let x = Tensor::randn(&[5, 6], &mut rng);
        // Training-path forward: the caching chain the trainers run.
        let train_bits: Vec<u32> =
            model.logits(&params, &x).data().iter().map(|v| v.to_bits()).collect();
        // Serving path, monolithic: no caches, same bits.
        let flat = model.prepare_input(&x);
        let inf: Vec<u32> =
            model.infer(&params, &flat).data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(inf, train_bits, "inference forward must match the training path bit for bit");
        // Serving path, staged: chaining every split partition is still
        // bit-identical, for any stage count (including stages > layers).
        for stages in 1..=7 {
            let splits = model.serve_splits(stages);
            assert_eq!(splits.len(), stages);
            let mut cur = flat.clone();
            for sp in &splits {
                cur = model.infer_split(&params, sp, &cur);
            }
            let staged: Vec<u32> = cur.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(staged, train_bits, "staged forward diverged at {stages} stages");
        }
    }

    #[test]
    fn units_tile_params() {
        let model = Mlp::new(&[10, 20, 5]);
        crate::layer::validate_units(&model.weight_units(), model.param_len()).unwrap();
        assert_eq!(model.weight_units().len(), 2);
    }

    #[test]
    fn model_gradcheck() {
        use crate::gradcheck::check_scalar_fn_gradient;
        let model = Mlp::new(&[3, 5, 2]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let batch = ImageBatch { x: Tensor::randn(&[4, 3], &mut rng), y: vec![0, 1, 1, 0] };
        let (_, cache) = model.forward_loss(&params, &batch);
        let grads = model.backward(&params, &cache);
        check_scalar_fn_gradient(
            &mut |p| model.forward_loss(p, &batch).0,
            &params,
            &grads,
            1e-3,
            5e-2,
            24,
        );
    }
}
