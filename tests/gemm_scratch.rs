//! A blocked GEMM packs B a block at a time, never the whole matrix.
//!
//! Packing all of B at once left every thread that had ever run a wide
//! layer holding a `k·n` copy of its weights for the rest of its life:
//! 2.6 MB for a 640×1024 layer. The blocked paths now pack at most 256 KiB
//! of B, or one `nr`-column panel where a single panel is larger, before
//! multiplying it; so no allocation a product makes may exceed that.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use pipemare::tensor::kernels::{self, Layout};
use pipemare::tensor::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn no_product_requests_more_than_one_block_of_b() {
    let (_, nr) = kernels::simd_level().tile();
    // A wide layer's microbatch forward (NN) and its input gradient (NT),
    // and a serving batch through a 512×512 layer.
    let products =
        [(Layout::NN, 16, 640, 1024), (Layout::NT, 16, 1024, 640), (Layout::NN, 32, 512, 512)];
    for (layout, m, k, n) in products {
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let block_bytes = 256 * 1024 + 4 * k * nr;
        ALLOC.watch_large(block_bytes + 1);
        match layout {
            Layout::NN => kernels::gemm(&a, &b, &mut c, m, k, n),
            Layout::NT => kernels::gemm_nt(&a, &b, &mut c, m, k, n),
            Layout::TN => unreachable!(),
        }
        assert_eq!(
            ALLOC.large_bytes(),
            0,
            "{layout:?} {m}×{k}×{n} asked for a block over 256 KiB + one {k}×{nr} panel \
             ({block_bytes} bytes); B alone is {} bytes",
            4 * k * n
        );
        assert!(c.iter().all(|&v| v == c[0]), "{layout:?} {m}×{k}×{n} computed unevenly");
    }
}
