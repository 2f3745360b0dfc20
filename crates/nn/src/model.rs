//! The [`TrainModel`] trait: what a pipeline trainer needs from a model.

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::layer::WeightUnit;

/// A trainable model exposed to the pipeline trainers.
///
/// The trainer owns the flat parameter vector (and any number of delayed
/// versions of it); the model is immutable configuration. The async
/// semantics live in the split between [`TrainModel::forward_loss`]
/// (run with the *forward* weight version `u_fwd`) and
/// [`TrainModel::backward`] (run with the *backward* weight version
/// `u_bkwd`): together they compute the paper's two-argument gradient
/// `∇f(u_fwd, u_bkwd)`.
pub trait TrainModel: Send + Sync {
    /// The minibatch/microbatch type consumed by this model.
    type Batch;

    /// Number of parameters.
    fn param_len(&self) -> usize;

    /// Writes freshly initialized parameters into `out`.
    fn init_params(&self, out: &mut [f32], rng: &mut StdRng);

    /// Weight units in topological order, tiling `0..param_len()`.
    fn weight_units(&self) -> Vec<WeightUnit>;

    /// Forward pass on one (micro)batch: returns the mean loss and a cache
    /// for [`TrainModel::backward`].
    fn forward_loss(&self, params: &[f32], batch: &Self::Batch) -> (f32, Cache);

    /// Backward pass: returns the full flat parameter gradient. `params`
    /// may differ from the slice passed to `forward_loss`. The layers
    /// write straight into the returned vector ([`crate::Layer::backward_into`]),
    /// so it is the only gradient-sized buffer a backward allocates.
    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32>;
}

/// One contiguous slice of a model's layer chain: a layer range and the
/// matching range into the flat parameter vector. The one split type for
/// serving ([`InferModel::serve_splits`]) and training
/// ([`crate::Sequential::splits_at`]), recompute segments included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeSplit {
    /// First chain layer of this stage (inclusive).
    pub layer_lo: usize,
    /// Last chain layer of this stage (exclusive).
    pub layer_hi: usize,
    /// Parameter offset of `layer_lo` in the flat vector.
    pub param_lo: usize,
    /// Parameter offset just past `layer_hi - 1`'s parameters.
    pub param_hi: usize,
}

/// Forward-only serving interface: what the inference pipeline needs
/// from a model. No gradient caches are ever built; every entry point
/// is bit-identical to the training-path forward on the same weights
/// and inputs (the kernels use one in-order FMA chain per output
/// element regardless of batch size or dispatch tier).
pub trait InferModel: Send + Sync {
    /// Number of parameters.
    fn param_len(&self) -> usize;

    /// Features per input row after [`InferModel::prepare_input`].
    fn input_len(&self) -> usize;

    /// Features per output row.
    fn output_len(&self) -> usize;

    /// Canonicalizes a request batch before stage 0 (e.g. flattens
    /// `(B, C, H, W)` images to `(B, D)`).
    fn prepare_input(&self, x: &Tensor) -> Tensor;

    /// Full inference forward on a prepared `(B, input_len)` batch.
    fn infer(&self, params: &[f32], x: &Tensor) -> Tensor;

    /// Partitions the model into `stages` contiguous splits, balanced
    /// by parameter count. Chaining [`InferModel::infer_split`] over
    /// the splits in order equals [`InferModel::infer`] bit for bit.
    fn serve_splits(&self, stages: usize) -> Vec<ServeSplit>;

    /// Forward through one split; `params` is the full flat vector.
    fn infer_split(&self, params: &[f32], split: &ServeSplit, x: &Tensor) -> Tensor;
}

/// A labelled image (micro)batch: inputs `(B, C, H, W)` and class ids.
#[derive(Clone, Debug)]
pub struct ImageBatch {
    /// Input images.
    pub x: Tensor,
    /// Class labels, one per image.
    pub y: Vec<usize>,
}

/// A regression (micro)batch: inputs `(B, D)` and scalar targets `(B,)`.
#[derive(Clone, Debug)]
pub struct RegressionBatch {
    /// Input features.
    pub x: Tensor,
    /// Regression targets.
    pub y: Tensor,
}

/// A padded sequence-to-sequence (micro)batch.
///
/// All sequences are padded to the batch max length with `pad_id`.
/// `tgt_in` is the decoder input (shifted right, starting with `bos_id`);
/// `tgt_out` is the prediction target.
#[derive(Clone, Debug)]
pub struct SeqBatch {
    /// Source token ids `(B, Ts)` (f32-encoded).
    pub src: Tensor,
    /// Decoder input ids `(B, Tt)`.
    pub tgt_in: Tensor,
    /// Target ids, row-major `(B * Tt)`, padded with `pad_id`.
    pub tgt_out: Vec<usize>,
    /// Per-element source lengths (for key masking).
    pub src_lens: Vec<usize>,
    /// Padding token id.
    pub pad_id: usize,
}

impl SeqBatch {
    /// Number of sequences in the batch.
    pub fn batch_size(&self) -> usize {
        self.src.shape()[0]
    }

    /// Number of non-padding target tokens.
    pub fn target_tokens(&self) -> usize {
        self.tgt_out.iter().filter(|&&t| t != self.pad_id).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_batch_counts() {
        let b = SeqBatch {
            src: Tensor::zeros(&[2, 3]),
            tgt_in: Tensor::zeros(&[2, 4]),
            tgt_out: vec![1, 2, 0, 0, 3, 4, 5, 0],
            src_lens: vec![3, 2],
            pad_id: 0,
        };
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.target_tokens(), 5);
    }
}
