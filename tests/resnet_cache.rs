//! The ResNet's ReLUs cost no pass and no cached copy, and its blocks
//! cache each activation once.
//!
//! A ReLU that is a layer of its own allocates its output and keeps a
//! copy of its input for the backward pass: two activation-sized blocks
//! per ReLU, one of them held until the microbatch's backward. In
//! `CifarResNet` no ReLU is a layer: the stem's and each block's first
//! ride on the batch-norm before them, which regenerates the mask from
//! `x̂`, and a block's last rides on the residual add and leaves one bit
//! per element. A block's second convolution keeps no input either: it
//! is the first batch-norm's output, rebuilt from that `x̂` in backward,
//! and a projection block's shortcut convolution reads the block input
//! from its first convolution's cache. So a forward pass must allocate,
//! at activation size, the output of every convolution and batch-norm,
//! the input copy the stem's and each block's first convolution keeps
//! and the `x̂` a batch-norm keeps — and nothing else — and its cache
//! must hold exactly those last two.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use pipemare::nn::{Cache, CifarResNet, ImageBatch, ResNetConfig, TrainModel};
use pipemare::tensor::{CountingAlloc, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Floats in the tensors of `cache` and its children that hold at least
/// `min_len` of them.
fn cached_floats(cache: &Cache, min_len: usize) -> usize {
    let own: usize = cache.tensors.iter().map(Tensor::len).filter(|&len| len >= min_len).sum();
    own + cache.children.iter().map(|child| cached_floats(child, min_len)).sum::<usize>()
}

#[test]
fn the_forward_pass_allocates_and_caches_no_pre_activation() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    // pmbench's `resnet_inproc` microbatch: 10 images of 3×16×16 through
    // the ResNet-50 stand-in (widths 12, 24, 48; two blocks per group).
    let model = CifarResNet::new(ResNetConfig::resnet50_standin(10));
    let mut params = vec![0.0f32; model.param_len()];
    model.init_params(&mut params, &mut rng);
    let batch = ImageBatch { x: Tensor::randn(&[10, 3, 16, 16], &mut rng), y: vec![0; 10] };
    // Activations per group, and the input: the smallest is the size to
    // watch for.
    let (a0, a1, a2, input) = (10 * 12 * 256, 10 * 24 * 64, 10 * 48 * 16, 10 * 3 * 256);
    let smallest = a2.min(input);

    // Once unwatched: the convolutions' per-thread scratch grows on first
    // use and stays.
    drop(model.forward_loss(&params, &batch));
    ALLOC.watch_large(4 * smallest);
    let (_, cache) = model.forward_loss(&params, &batch);
    let allocated = ALLOC.large_bytes() as usize / 4;

    // Kept: the stem's input and x̂; per block, its input (in the first
    // convolution's cache) and each batch-norm's x̂. An identity block
    // keeps three activations of its group; a projection block keeps its
    // input once and three of its output's size.
    let kept = (input + a0) + 2 * 3 * a0 + (a0 + 3 * a1 + 3 * a1) + (a1 + 3 * a2 + 3 * a2);
    assert_eq!(cached_floats(&cache, smallest), kept, "the cache holds something activation-sized");
    // Allocated besides: the output of each of the 15 convolutions and 15
    // batch-norms (the stem's pair, four per identity block, six per
    // projection block).
    let outputs = 2 * a0 + 2 * 4 * a0 + (6 + 4) * a1 + (6 + 4) * a2;
    assert_eq!(allocated, kept + outputs, "a pass allocated an activation of its own");
}
