//! Convolution scratch is sized by an image, never by a batch.
//!
//! The patch-matrix path kept, for the life of each thread, buffers as
//! large as the largest batch that thread had ever convolved: an 80-image
//! evaluation left 8.8 MB of unfold scratch and as much pack scratch
//! behind a training loop whose microbatches hold 10 images. The blocked
//! passes work through a batch in chunks of a fixed size, so whatever a
//! thread keeps after a call — a chunk's working copy and a few panels —
//! is smaller than the patch matrix of even the small batch.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use pipemare::nn::{Conv2d, Layer};
use pipemare::tensor::{CountingAlloc, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn nothing_sized_by_the_largest_batch_outlives_the_call() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    // The ResNet stand-in's widest-plane layer: 12 → 12 channels, 3×3,
    // on 16×16 planes; its patch matrix is C·k·k × B·oh·ow floats.
    let conv = Conv2d::new_no_bias(12, 12, 3, 1, 1);
    let patch_matrix_bytes = |batch: usize| 4 * (12 * 3 * 3) * batch * 16 * 16;
    let mut params = vec![0.0f32; conv.param_len()];
    conv.init_params(&mut params, &mut rng);
    let eval = Tensor::randn(&[80, 12, 16, 16], &mut rng);
    let train = Tensor::randn(&[10, 12, 16, 16], &mut rng);

    ALLOC.watch_large(patch_matrix_bytes(10));
    drop(conv.forward(&params, &eval));
    let (y, cache) = conv.forward(&params, &train);
    let dy = Tensor::randn(y.shape(), &mut rng);
    drop(conv.backward(&params, &cache, &dy));
    drop((y, cache, dy));

    // The outputs themselves are smaller than that, so not one block of
    // the size may have been requested — kept or not.
    assert_eq!(
        ALLOC.large_bytes(),
        0,
        "an 80-image forward and a 10-image forward + backward put bytes into blocks of at \
         least {} bytes, the 10-image patch matrix",
        patch_matrix_bytes(10),
    );
}
