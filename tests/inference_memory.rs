//! Evaluation holds a few activations, never a backward cache.
//!
//! `accuracy` runs the cache-free pass: each layer's output replaces its
//! input, so a residual block holds its input, one intermediate and its
//! output at once — three activations of its group. The training forward
//! instead keeps every convolution's input and every batch-norm's `x̂`
//! until the call returns: for the 80-image test batch of pmbench's
//! `resnet_inproc` a training forward holds ≈19 MB at its peak, twenty
//! stem activations, where the cache-free pass holds three.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::data::SyntheticImages;
use pipemare::nn::{CifarResNet, ImageBatch, Mlp, ResNetConfig, TrainModel};
use pipemare::tensor::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The most bytes `f` held at once beyond those live before it.
fn held_by(f: impl FnOnce() -> f32) -> usize {
    let before = ALLOC.live_bytes();
    ALLOC.take_peak();
    std::hint::black_box(f());
    ALLOC.take_peak().saturating_sub(before)
}

#[test]
fn evaluation_holds_a_few_activations_not_a_backward_cache() {
    // pmbench's `resnet_inproc` data: 80 test images of 3×16×16.
    let (x, y) = SyntheticImages::cifar_like(160, 80, 41).generate().test_batch();
    let test = ImageBatch { x, y };
    let mut rng = StdRng::seed_from_u64(5);

    let net = CifarResNet::new(ResNetConfig::resnet50_standin(10));
    let mut params = vec![0.0f32; TrainModel::param_len(&net)];
    net.init_params(&mut params, &mut rng);
    // Once unmeasured: the convolutions' and products' per-thread scratch
    // grows on first use and stays.
    net.accuracy(&params, &test);
    let stem = 80 * 12 * 16 * 16 * 4;
    let held = held_by(|| net.accuracy(&params, &test));
    assert!(held <= 4 * stem, "ResNet evaluation held {held} B, over 4 stem activations");

    // The MLP holds its flattened input and, per layer, an input and an
    // output at most as wide as the widest hidden layer.
    let mlp = Mlp::new(&[768, 256, 128, 10]);
    let mut params = vec![0.0f32; mlp.param_len()];
    mlp.init_params(&mut params, &mut rng);
    let (input, widest) = (80 * 768 * 4, 80 * 256 * 4);
    mlp.accuracy(&params, &test);
    let held = held_by(|| mlp.accuracy(&params, &test));
    assert!(
        held <= input + 3 * widest,
        "MLP evaluation held {held} B, over its input and 3 widest activations"
    );
}
