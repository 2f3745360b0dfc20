//! A model's backward writes every layer's weight gradient straight into
//! the vector it returns.
//!
//! Each layer used to return its gradient in a fresh vector that the
//! chain then copied into the model's: a 640×1024 layer's 2.6 MB `dW`
//! lived beside the 5.3 MB whole-model gradient, and both beside the
//! upstream and input gradients. Now the layers write into sub-slices of
//! the returned vector, so above what was live on entry a backward holds
//! that vector and the two activation gradients of the layer it is in.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use std::sync::Barrier;

use rand::SeedableRng;

use pipemare::nn::{ImageBatch, Mlp, TrainModel};
use pipemare::tensor::{pool, CountingAlloc, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn an_mlp_backward_holds_its_gradient_and_two_activations() {
    let (rows, widest) = (16, 1024);
    let model = Mlp::new(&[640, widest, 512, 256, 10]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut params = vec![0.0f32; model.param_len()];
    model.init_params(&mut params, &mut rng);
    let batch = ImageBatch {
        x: Tensor::randn(&[rows, 640], &mut rng),
        y: (0..rows).map(|i| i % 10).collect(),
    };
    // Steps first, so every thread's pack scratch has its steady size:
    // one on each pool thread at once (each waits for all the others, so
    // no thread takes two lanes), then one across the pool.
    let step = || drop(model.backward(&params, &model.forward_loss(&params, &batch).1));
    let pool = pool::active();
    let all = Barrier::new(pool.threads());
    pool.parallel_for(pool.threads(), |_| {
        all.wait();
        step();
    });
    step();

    let (_, cache) = model.forward_loss(&params, &batch);
    ALLOC.take_peak();
    let entry = ALLOC.live_bytes();
    let grads = model.backward(&params, &cache);
    let held = ALLOC.take_peak() - entry;

    let (grad_bytes, activation_bytes) = (4 * grads.len(), 4 * rows * widest);
    assert!(
        held <= grad_bytes + 2 * activation_bytes,
        "backward held {held} bytes above its entry: more than its {grad_bytes}-byte gradient \
         and two {activation_bytes}-byte activations"
    );
    assert!(grads.iter().all(|g| g.is_finite()));
}
