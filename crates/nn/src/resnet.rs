//! CIFAR-style residual networks (the ResNet-50/152 stand-in).

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::conv::Conv2d;
use crate::layer::{forward_into, Layer, ParamAlloc, WeightUnit};
use crate::linear::Linear;
use crate::loss::{chain_xent_backward, chain_xent_forward};
use crate::model::{ImageBatch, TrainModel};
use crate::norm::BatchNorm2d;
use crate::pool::GlobalAvgPool2d;
use crate::sequential::Sequential;

/// Bits per word of a packed ReLU mask.
const MASK_BITS: usize = usize::BITS as usize;

/// `sum = relu(sum + skip)` in place: the residual add and the block's
/// output ReLU in one pass. Returns one bit per element, set where the
/// pre-activation was positive — all the backward pass needs of it.
fn add_relu(sum: &mut Tensor, skip: &Tensor) -> Vec<usize> {
    assert_eq!(sum.shape(), skip.shape(), "residual add: shape mismatch");
    let mut mask = Vec::with_capacity(sum.len().div_ceil(MASK_BITS));
    for (sums, skips) in sum.data_mut().chunks_mut(MASK_BITS).zip(skip.data().chunks(MASK_BITS)) {
        let mut word = 0usize;
        for (i, (v, &s)) in sums.iter_mut().zip(skips).enumerate() {
            let pre = *v + s;
            word |= usize::from(pre > 0.0) << i;
            *v = pre.max(0.0);
        }
        mask.push(word);
    }
    mask
}

/// Backward through the ReLU whose mask [`add_relu`] packed: `dy` times
/// `1.0` where the bit is set and `0.0` where it is not, which keeps the
/// sign of a zero and a non-finite `dy` as `Activation::backward` does.
fn relu_grad(dy: &Tensor, mask: &[usize]) -> Tensor {
    let mut dpre = Vec::with_capacity(dy.len());
    for (dys, &word) in dy.data().chunks(MASK_BITS).zip(mask) {
        let passed = |i: usize| if word >> i & 1 == 1 { 1.0 } else { 0.0 };
        dpre.extend(dys.iter().enumerate().map(|(i, &g)| g * passed(i)));
    }
    Tensor::from_vec(dpre, dy.shape())
}

/// A basic residual block: two 3×3 conv/BN pairs with an identity or
/// projection (1×1 conv + BN) shortcut, post-activation (He et al. 2016).
///
/// Neither ReLU is a layer of its own: `bn1` clamps in its normalise pass
/// and regenerates the mask from `x̂` ([`BatchNorm2d::with_relu`]), and the
/// output ReLU rides on the residual add and leaves a packed bit mask in
/// the cache's `indices`. The block caches each activation once: the
/// block input (in `conv1`'s cache, which the shortcut convolution reads
/// too) and the batch-norms' `x̂`. `conv2`'s input is `bn1`'s output,
/// rebuilt from `bn1`'s cache in backward, and no pre-activation is kept.
struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    /// Projection shortcut for shape-changing blocks.
    down: Option<(Conv2d, BatchNorm2d)>,
}

impl BasicBlock {
    fn new(in_c: usize, out_c: usize, stride: usize) -> Self {
        let down = if stride != 1 || in_c != out_c {
            Some((Conv2d::new_no_bias(in_c, out_c, 1, stride, 0), BatchNorm2d::new(out_c)))
        } else {
            None
        };
        BasicBlock {
            conv1: Conv2d::new_no_bias(in_c, out_c, 3, stride, 1),
            bn1: BatchNorm2d::with_relu(out_c),
            conv2: Conv2d::new_no_bias(out_c, out_c, 3, 1, 1),
            bn2: BatchNorm2d::new(out_c),
            down,
        }
    }

    /// Offsets of the sub-layers in this block's parameter slice.
    fn offsets(&self) -> [usize; 6] {
        let mut o = [0usize; 6];
        o[0] = 0;
        o[1] = o[0] + self.conv1.param_len();
        o[2] = o[1] + self.bn1.param_len();
        o[3] = o[2] + self.conv2.param_len();
        o[4] = o[3] + self.bn2.param_len();
        o[5] = o[4] + self.down.as_ref().map(|(c, _)| c.param_len()).unwrap_or(0);
        o
    }

    /// Both passes: with a cache, the caches of `conv1`, `bn1`, `bn2`
    /// and the shortcut's batch-norm become its children, in that order,
    /// and the output ReLU's mask its `indices`. `conv2` and the shortcut
    /// convolution run cache-free either way: their inputs are `bn1`'s
    /// output and the block input, which backward takes from the
    /// children. Each intermediate is dropped as soon as the next one
    /// exists.
    fn run(&self, params: &[f32], x: &Tensor, mut cache: Option<&mut Cache>) -> Tensor {
        let o = self.offsets();
        let mut h = forward_into(&self.conv1, &params[o[0]..o[1]], x, cache.as_deref_mut());
        h = forward_into(&self.bn1, &params[o[1]..o[2]], &h, cache.as_deref_mut());
        h = self.conv2.forward_no_cache(&params[o[2]..o[3]], &h);
        // The residual sum lands in the main branch's own buffer.
        let mut y = forward_into(&self.bn2, &params[o[3]..o[4]], &h, cache.as_deref_mut());
        drop(h);
        let mask = match &self.down {
            None => add_relu(&mut y, x),
            Some((dc, db)) => {
                let mut s = dc.forward_no_cache(&params[o[4]..o[5]], x);
                s = forward_into(db, &params[o[5]..], &s, cache.as_deref_mut());
                add_relu(&mut y, &s)
            }
        };
        if let Some(cache) = cache {
            cache.indices = mask;
        }
        y
    }
}

impl Layer for BasicBlock {
    fn param_len(&self) -> usize {
        let base = self.conv1.param_len()
            + self.bn1.param_len()
            + self.conv2.param_len()
            + self.bn2.param_len();
        base + self.down.as_ref().map(|(c, b)| c.param_len() + b.param_len()).unwrap_or(0)
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let o = self.offsets();
        self.conv1.init_params(&mut out[o[0]..o[1]], rng);
        self.bn1.init_params(&mut out[o[1]..o[2]], rng);
        self.conv2.init_params(&mut out[o[2]..o[3]], rng);
        self.bn2.init_params(&mut out[o[3]..o[4]], rng);
        if let Some((c, b)) = &self.down {
            c.init_params(&mut out[o[4]..o[5]], rng);
            b.init_params(&mut out[o[5]..], rng);
        }
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let mut cache = Cache::new();
        let y = self.run(params, x, Some(&mut cache));
        (y, cache)
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.run(params, x, None)
    }

    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let o = self.offsets();
        // Each sub-layer writes into its own range of `grads`. Through the
        // output ReLU, then the main branch.
        let dpre = relu_grad(dy, &cache.indices);
        let at = o[3]..o[4];
        let mut dx =
            self.bn2.backward_into(&params[at.clone()], cache.child(2), &dpre, &mut grads[at]);
        let h = self.bn1.output_from_cache(cache.child(1));
        dx = self.conv2.backward_with_input(&params[o[2]..o[3]], &h, &dx, &mut grads[o[2]..o[3]]);
        drop(h);
        let mut back = |layer: &dyn Layer, i: usize, at: std::ops::Range<usize>, d: &Tensor| {
            layer.backward_into(&params[at.clone()], cache.child(i), d, &mut grads[at])
        };
        dx = back(&self.bn1, 1, o[1]..o[2], &dx);
        dx = back(&self.conv1, 0, o[0]..o[1], &dx);
        // Shortcut branch; its convolution's input is `conv1`'s.
        match &self.down {
            None => dx.axpy(1.0, &dpre),
            Some((dc, db)) => {
                let mut ds = back(db, 3, o[5]..self.param_len(), &dpre);
                drop(dpre);
                let x = cache.child(0).tensor(0);
                ds = dc.backward_with_input(&params[o[4]..o[5]], x, &ds, &mut grads[o[4]..o[5]]);
                dx.axpy(1.0, &ds);
            }
        }
        dx
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        let o = self.offsets();
        let mut units = vec![
            WeightUnit { name: "conv1".into(), offset: o[0], len: o[1] - o[0] },
            WeightUnit { name: "bn1".into(), offset: o[1], len: o[2] - o[1] },
            WeightUnit { name: "conv2".into(), offset: o[2], len: o[3] - o[2] },
            WeightUnit { name: "bn2".into(), offset: o[3], len: o[4] - o[3] },
        ];
        if self.down.is_some() {
            units.push(WeightUnit { name: "down.conv".into(), offset: o[4], len: o[5] - o[4] });
            units.push(WeightUnit {
                name: "down.bn".into(),
                offset: o[5],
                len: self.param_len() - o[5],
            });
        }
        units
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        self.conv1.output_shape(input)
    }
}

/// Configuration for a CIFAR-style residual network.
#[derive(Clone, Copy, Debug)]
pub struct ResNetConfig {
    /// Residual blocks per stage group (3 groups). Depth ≈ `6n + 2`.
    pub blocks_per_group: usize,
    /// Channels of the first group (doubled each group).
    pub base_width: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Input channels (3 for RGB).
    pub in_channels: usize,
}

impl ResNetConfig {
    /// A small fast network for tests (depth 8).
    pub fn tiny(classes: usize) -> Self {
        ResNetConfig { blocks_per_group: 1, base_width: 8, classes, in_channels: 3 }
    }

    /// The ResNet-50 stand-in used by the CIFAR-like experiments
    /// (depth 14 at reproduction scale).
    pub fn resnet50_standin(classes: usize) -> Self {
        ResNetConfig { blocks_per_group: 2, base_width: 12, classes, in_channels: 3 }
    }

    /// The ResNet-152 stand-in (deeper; used by the Figure 11 experiment).
    pub fn resnet152_standin(classes: usize) -> Self {
        ResNetConfig { blocks_per_group: 5, base_width: 12, classes, in_channels: 3 }
    }
}

/// A CIFAR-style residual network classifier.
///
/// Architecture: 3×3 conv stem → 3 groups of `BasicBlock`s (widths
/// `w, 2w, 4w`, groups 2–3 downsample) → global average pool → linear
/// classifier. This is the paper's ResNet-50/152 substitute at
/// reproduction scale; the delay structure seen by the pipeline
/// partitioner (many conv/BN weight units in topological order) matches
/// the real thing.
pub struct CifarResNet {
    chain: Sequential,
    cfg: ResNetConfig,
}

impl CifarResNet {
    /// Builds the network from a configuration.
    pub fn new(cfg: ResNetConfig) -> Self {
        let w = cfg.base_width;
        let mut chain = Sequential::new()
            .push_named("stem.conv", Conv2d::new_no_bias(cfg.in_channels, w, 3, 1, 1))
            .push_named("stem.bn", BatchNorm2d::with_relu(w));
        let widths = [w, 2 * w, 4 * w];
        let mut in_c = w;
        for (g, &out_c) in widths.iter().enumerate() {
            for b in 0..cfg.blocks_per_group {
                let stride = if g > 0 && b == 0 { 2 } else { 1 };
                chain =
                    chain.push_named(&format!("g{g}.b{b}"), BasicBlock::new(in_c, out_c, stride));
                in_c = out_c;
            }
        }
        chain = chain.push(GlobalAvgPool2d).push_named("fc", Linear::new(4 * w, cfg.classes));
        CifarResNet { chain, cfg }
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> ResNetConfig {
        self.cfg
    }

    /// The layer chain (stem, residual blocks, pool, classifier).
    pub fn chain(&self) -> &Sequential {
        &self.chain
    }

    /// Computes class logits for an image batch `(B, C, H, W)`: the
    /// cache-free pass, which holds at most three activations at once.
    pub fn logits(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.chain.forward_no_cache(params, x)
    }

    /// Top-1 accuracy on a labelled batch.
    pub fn accuracy(&self, params: &[f32], batch: &ImageBatch) -> f32 {
        let preds = self.logits(params, &batch.x).argmax_rows();
        let correct = preds.iter().zip(batch.y.iter()).filter(|(p, y)| p == y).count();
        correct as f32 / batch.y.len() as f32
    }
}

impl TrainModel for CifarResNet {
    type Batch = ImageBatch;

    fn param_len(&self) -> usize {
        self.chain.param_len()
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.chain.init_params(out, rng);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        let mut alloc = ParamAlloc::new();
        alloc.alloc_layer("resnet", &self.chain);
        alloc.finish().1
    }

    fn forward_loss(&self, params: &[f32], batch: &ImageBatch) -> (f32, Cache) {
        chain_xent_forward(&self.chain, params, &batch.x, &batch.y, None)
    }

    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32> {
        chain_xent_backward(&self.chain, params, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn basic_block_gradcheck_identity_shortcut() {
        use crate::gradcheck::check_layer_gradients;
        let block = BasicBlock::new(4, 4, 1);
        check_layer_gradients(&block, &[2, 4, 4, 4], 61, 8e-2);
    }

    #[test]
    fn basic_block_gradcheck_projection_shortcut() {
        use crate::gradcheck::check_layer_gradients;
        let block = BasicBlock::new(2, 4, 2);
        check_layer_gradients(&block, &[2, 2, 4, 4], 62, 8e-2);
    }

    /// The block tail against the two passes it replaces, `axpy` then
    /// `Activation::relu()`, bit for bit forward and backward — with sums
    /// of both zeros, a NaN and an infinity among the pre-activations and
    /// an infinite and a NaN upstream gradient, and a length off the
    /// mask's word size.
    #[test]
    fn add_relu_equals_axpy_then_relu() {
        use crate::activation::Activation;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut rng = StdRng::seed_from_u64(7);
        let shape = [3, 5, 3, 3];
        let (mut main, mut skip) =
            (Tensor::randn(&shape, &mut rng), Tensor::randn(&shape, &mut rng));
        let specials = [
            (0.0, 0.0),
            (-0.0, -0.0),
            (1.5, -1.5),
            (f32::NAN, 1.0),
            (f32::INFINITY, 1.0),
            (-1.0, f32::NEG_INFINITY),
        ];
        for (i, (a, b)) in specials.into_iter().enumerate() {
            (main.data_mut()[i * 7], skip.data_mut()[i * 7]) = (a, b);
        }
        let mut dy = Tensor::randn(&shape, &mut rng);
        for (i, g) in [f32::INFINITY, f32::NAN, -0.0, f32::NEG_INFINITY].into_iter().enumerate() {
            (dy.data_mut()[i * 7], dy.data_mut()[100 + i]) = (g, g);
        }
        let mut pre = main.clone();
        pre.axpy(1.0, &skip);
        let relu = Activation::relu();
        let (want_y, relu_cache) = relu.forward(&[], &pre);
        let (want_dpre, _) = relu.backward(&[], &relu_cache, &dy);
        let mut y = main;
        let mask = add_relu(&mut y, &skip);
        assert_eq!(bits(&y), bits(&want_y));
        assert_eq!(bits(&relu_grad(&dy, &mask)), bits(&want_dpre));
        assert_eq!(mask.len(), y.len().div_ceil(MASK_BITS));
    }

    #[test]
    fn resnet_shapes_and_units() {
        let net = CifarResNet::new(ResNetConfig::tiny(10));
        crate::layer::validate_units(&net.weight_units(), net.param_len()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = vec![0.0; net.param_len()];
        net.init_params(&mut p, &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let logits = net.logits(&p, &x);
        assert_eq!(logits.shape(), &[2, 10]);
        // Unit count: stem(2) + 3 blocks (4/6/6 units) + fc(1) = 19.
        assert_eq!(net.weight_units().len(), 19);
    }

    #[test]
    fn resnet_loss_decreases_under_sgd() {
        let net = CifarResNet::new(ResNetConfig::tiny(2));
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = vec![0.0; net.param_len()];
        net.init_params(&mut params, &mut rng);
        // Class 0: bright images; class 1: dark images.
        let mut x = Tensor::randn(&[8, 3, 8, 8], &mut rng);
        let mut y = Vec::new();
        for i in 0..8 {
            let label = i % 2;
            let delta = if label == 0 { 2.0 } else { -2.0 };
            for j in 0..3 * 64 {
                x.data_mut()[i * 3 * 64 + j] += delta;
            }
            y.push(label);
        }
        let batch = ImageBatch { x, y };
        let (loss0, _) = net.forward_loss(&params, &batch);
        for _ in 0..30 {
            let (_, cache) = net.forward_loss(&params, &batch);
            let grads = net.backward(&params, &cache);
            for (p, g) in params.iter_mut().zip(grads.iter()) {
                *p -= 0.05 * g;
            }
        }
        let (loss1, _) = net.forward_loss(&params, &batch);
        assert!(loss1 < loss0 * 0.5, "loss did not drop: {loss0} -> {loss1}");
        assert!(net.accuracy(&params, &batch) >= 0.9);
    }

    #[test]
    fn deeper_config_has_more_units() {
        let small = CifarResNet::new(ResNetConfig::resnet50_standin(10));
        let big = CifarResNet::new(ResNetConfig::resnet152_standin(10));
        assert!(big.weight_units().len() > small.weight_units().len());
        assert!(big.param_len() > small.param_len());
    }
}
