//! GEMM kernel microbenchmarks: naive vs blocked vs forced-tier
//! (scalar/SIMD) vs pool-threaded, on square and skinny shapes.
//!
//! Besides the printed criterion tables, the run writes an
//! [`ExperimentLog`] JSON (`bench_gemm_kernels.json`) with per-variant
//! GFLOP/s, the headline speedup scalars, and a `dispatch.*` scalar per
//! series recording which microkernel tier (0 = scalar, 1 = avx2,
//! 2 = avx512) that series ran on, so the perf trajectory of the kernel
//! layer is tracked across commits. The full run prints and logs the
//! SIMD tier's speed-up over the scalar microkernel at 512³ without
//! asserting it: it is a wall-clock ratio of this host and this build.
//!
//! A second section times the convolution layer built on those kernels
//! (`metric.conv.{fwd,bwd}_us.*`, informational) and records what its
//! data path is made of, which does not depend on the host and gates:
//! the bytes a forward pass keeps for backward
//! (`conv.cache_bytes_12x16x16_b10`), the allocator calls of one warm
//! forward + backward (`conv.allocs_fwd_bwd`), the `Tensor::permute`
//! calls in it (`conv.permute_calls`, zero: the passes read and write
//! NCHW directly), the bytes that went into allocations as large as a
//! patch matrix during a first forward + backward on a fresh thread
//! (`conv.patch_matrix_bytes`, zero: there is none) and the bytes such a
//! thread asks the allocator for to run the three passes at the scalar
//! tier, whose tile every host has (`conv.scratch_bytes_12x16x16_b10`: the
//! scratch it is left holding, a buffer that grew twice counted twice).
//!
//! A third section does the same for attention, whose heads are column
//! blocks of its projections: the allocator calls of one warm forward +
//! backward at pmbench's microbatch (`attn.allocs_fwd_bwd`), the
//! `Tensor::permute` calls in it (`attn.permute_calls`, zero) and its
//! kernel calls (`attn.kernel_calls_fwd_bwd`: every product of a layer
//! over all heads is one call) gate; `metric.attn.*` and
//! `metric.small_gemm.*` time the layer, the three small products a
//! transformer microbatch is made of, and the cross-over sweep — no-pack
//! time over blocked time on a grid of small shapes and of short
//! products over large B — that the dispatch line in
//! `kernels::no_pack_is_faster` was read from. The side the dispatcher
//! picks for every swept shape, `small_gemm.side.<layout>.<m>x<k>x<n>`
//! (0 = no-pack, 1 = blocked), gates: it moves only when the line does.
//!
//! Passing `--test` anywhere on the command line runs a seconds-long
//! smoke version (tiny shapes, correctness cross-check) for CI. The
//! smoke run writes the JSON too — timing series for its own tiny
//! shapes, no 512³ headline scalars — so `scripts/check_bench.sh` can
//! verify the log's structure against the checked-in baseline.

use std::sync::Arc;
use std::time::Instant;

use criterion::Criterion;

use pipemare_bench::report::ExperimentLog;
use pipemare_nn::{AttnMask, Conv2d, Layer, MultiHeadAttention};
use pipemare_telemetry::MetricsRegistry;
use pipemare_tensor::kernels::{BatchStride, Layout, Product, SimdLevel};
use pipemare_tensor::{
    conv, kernels, pool, Conv2dGeometry, ConvProblem, CountingAlloc, KernelKind, Tensor, ThreadPool,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `(label, m, k, n)` shapes: squares for the headline numbers, skinny
/// shapes for the shapes transformer/conv layers actually produce.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("square_128", 128, 128, 128),
    ("square_256", 256, 256, 256),
    ("square_512", 512, 512, 512),
    ("skinny_k_512x64x512", 512, 64, 512),
    ("tall_1024x256x64", 1024, 256, 64),
];

const SMOKE_SHAPES: &[(&str, usize, usize, usize)] =
    &[("square_96", 96, 96, 96), ("skinny_64x16x80", 64, 16, 80)];

/// Thread counts for the scaling curve.
const THREADS: &[usize] = &[1, 2, 4];

struct Variant {
    name: &'static str,
    pool: Option<Arc<ThreadPool>>,
    /// `Some(level)` pins the packed microkernel tier via
    /// [`kernels::gemm_blocked_with`]; `None` uses the variant's normal
    /// entry point (which dispatches through [`kernels::simd_level`]).
    forced: Option<SimdLevel>,
}

/// Microkernel tier each variant's inner loop actually runs, as recorded
/// in the `dispatch.*` baseline keys (0 = scalar, 1 = avx2, 2 = avx512).
fn dispatch_level(variant: &Variant) -> SimdLevel {
    match (variant.name, variant.forced) {
        // The naive triple loop never touches the packed microkernel.
        ("naive", _) => SimdLevel::Scalar,
        (_, Some(level)) => level,
        _ => kernels::simd_level(),
    }
}

fn level_code(level: SimdLevel) -> f64 {
    match level {
        SimdLevel::Scalar => 0.0,
        SimdLevel::Avx2 => 1.0,
        SimdLevel::Avx512 => 2.0,
    }
}

fn variants(threads: &[usize]) -> Vec<Variant> {
    let mut v = vec![
        Variant { name: "naive", pool: None, forced: None },
        Variant { name: "blocked", pool: None, forced: None },
        // Forced-tier pair for the SIMD speedup headline: `scalar` pins
        // the portable microkernel, `simd` pins the best tier the host
        // dispatcher selected (identical to `blocked` unless
        // PIPEMARE_SIMD overrides the detection).
        Variant { name: "scalar", pool: None, forced: Some(SimdLevel::Scalar) },
        Variant { name: "simd", pool: None, forced: Some(kernels::simd_level()) },
    ];
    for &t in threads {
        let name: &'static str = match t {
            1 => "pool_1",
            2 => "pool_2",
            4 => "pool_4",
            _ => "pool_n",
        };
        v.push(Variant { name, pool: Some(ThreadPool::new(t)), forced: None });
    }
    v
}

fn run_variant(variant: &Variant, a: &Tensor, b: &Tensor, m: usize, k: usize, n: usize) -> Tensor {
    let mut c = Tensor::zeros(&[m, n]);
    match (variant.name, variant.forced, &variant.pool) {
        ("naive", _, _) => kernels::gemm_naive(a.data(), b.data(), c.data_mut(), m, k, n),
        ("blocked", _, _) => {
            kernels::gemm_blocked(kernels::Layout::NN, a.data(), b.data(), c.data_mut(), m, k, n)
        }
        (_, Some(level), _) => kernels::gemm_blocked_with(
            level,
            kernels::Layout::NN,
            a.data(),
            b.data(),
            c.data_mut(),
            m,
            k,
            n,
        ),
        (_, _, Some(p)) => pool::with_pool(p, || {
            kernels::gemm(a.data(), b.data(), c.data_mut(), m, k, n);
        }),
        _ => unreachable!("pool variant without pool"),
    }
    c
}

/// Median wall-clock seconds of `reps` timed runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
    samples[samples.len() / 2]
}

/// `(label, in_c, out_c, kernel, stride, padding, height = width)` of the
/// ResNet stand-in's convolutions, all on microbatches of 10 images.
const CONV_SHAPES: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
    ("12to12_16x16", 12, 12, 3, 1, 1, 16),
    ("24to24_8x8", 24, 24, 3, 1, 1, 8),
    ("48to48_4x4", 48, 48, 3, 1, 1, 4),
    ("12to24_s2_16x16", 12, 24, 3, 2, 1, 16),
    ("12to24_1x1_s2_16x16", 12, 24, 1, 2, 0, 16),
];

/// What a thread that has never convolved allocates for the first shape
/// of [`CONV_SHAPES`]: the bytes that went into blocks at least as large
/// as its patch matrix (`C·k·k × B·oh·ow` floats) during a layer forward +
/// backward, and all the bytes it requests for the three passes at the
/// scalar tier with every output preallocated — its scratch, which it
/// keeps, so an upper bound on what a thread holds afterwards.
fn conv_cold_thread_facts() -> (u64, u64) {
    let (_, in_c, out_c, k, stride, padding, hw) = CONV_SHAPES[0];
    let geom = Conv2dGeometry { in_channels: in_c, in_h: hw, in_w: hw, kernel: k, stride, padding };
    let problem = ConvProblem { geom, out_channels: out_c, batch: 10 };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let x = Tensor::randn(&[10, in_c, hw, hw], &mut rng);
    let dy = Tensor::randn(&[10, out_c, geom.out_h(), geom.out_w()], &mut rng);
    let kernel = Tensor::randn(&[problem.kernel_len()], &mut rng);
    let one_thread = ThreadPool::new(1);
    let through_the_layer = || {
        let conv = Conv2d::new_no_bias(in_c, out_c, k, stride, padding);
        pool::with_pool(&one_thread, || {
            ALLOC.watch_large(4 * geom.patch_len() * 10 * geom.patches());
            let (_, cache) = conv.forward(kernel.data(), &x);
            std::hint::black_box(conv.backward(kernel.data(), &cache, &dy));
            ALLOC.large_bytes()
        })
    };
    let scalar_passes = || {
        let (mut y, mut dx) = (vec![0.0f32; dy.len()], vec![0.0f32; x.len()]);
        let mut dw = vec![0.0f32; kernel.len()];
        pool::with_pool(&one_thread, || {
            let before = ALLOC.bytes();
            let level = SimdLevel::Scalar;
            conv::forward(level, &problem, kernel.data(), None, x.data(), &mut y);
            conv::backward_weights(level, &problem, x.data(), dy.data(), &mut dw);
            conv::backward_input(level, &problem, kernel.data(), dy.data(), &mut dx);
            std::hint::black_box((&y, &dw, &dx));
            ALLOC.bytes() - before
        })
    };
    std::thread::scope(|scope| {
        let large = scope.spawn(through_the_layer).join().expect("cold conv thread");
        let scratch = scope.spawn(scalar_passes).join().expect("cold conv thread");
        (large, scratch)
    })
}

/// Times `Conv2d` forward and backward on [`CONV_SHAPES`] and records the
/// deterministic facts of its data path, on a one-thread pool so that no
/// pool job is boxed while allocations are being counted.
fn conv_section(log: &mut ExperimentLog, reps: usize) {
    let (patch_matrix_bytes, scratch_bytes) = conv_cold_thread_facts();
    log.push_scalar("conv.patch_matrix_bytes", patch_matrix_bytes as f64);
    log.push_scalar("conv.scratch_bytes_12x16x16_b10", scratch_bytes as f64);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    pool::with_pool(&ThreadPool::new(1), || {
        for (i, &(label, in_c, out_c, k, stride, padding, hw)) in CONV_SHAPES.iter().enumerate() {
            let conv = Conv2d::new_no_bias(in_c, out_c, k, stride, padding);
            let mut params = vec![0.0f32; conv.param_len()];
            conv.init_params(&mut params, &mut rng);
            let x = Tensor::randn(&[10, in_c, hw, hw], &mut rng);
            // Warm pass: grows the per-thread scratch and pack buffers.
            let (y, cache) = conv.forward(&params, &x);
            let dy = Tensor::randn(y.shape(), &mut rng);
            std::hint::black_box(conv.backward(&params, &cache, &dy));
            if i == 0 {
                let registry = MetricsRegistry::new();
                let kernel_metrics = pipemare_tensor::install_kernel_metrics(&registry);
                let before = ALLOC.calls();
                let (_, cache) = conv.forward(&params, &x);
                std::hint::black_box(conv.backward(&params, &cache, &dy));
                let allocs = ALLOC.calls() - before;
                pipemare_tensor::uninstall_kernel_metrics();
                log.push_scalar("conv.cache_bytes_12x16x16_b10", cache.activation_bytes() as f64);
                log.push_scalar("conv.allocs_fwd_bwd", allocs as f64);
                log.push_scalar(
                    "conv.permute_calls",
                    kernel_metrics.calls(KernelKind::Permute).get() as f64,
                );
            }
            let fwd = 1e6
                * median_secs(reps, || {
                    std::hint::black_box(conv.forward(&params, &x));
                });
            let bwd = 1e6
                * median_secs(reps, || {
                    std::hint::black_box(conv.backward(&params, &cache, &dy));
                });
            println!("    conv {label:<20} fwd {fwd:>8.1} us  bwd {bwd:>8.1} us");
            log.push_scalar(&format!("metric.conv.fwd_us.{label}"), fwd);
            log.push_scalar(&format!("metric.conv.bwd_us.{label}"), bwd);
        }
    });
}

/// One attention layer at pmbench's `transformer_recompute` microbatch
/// (3 sentences of 6 tokens, width 32, 4 heads): what its data path is
/// made of (gated) and how long it takes (informational).
fn attention_section(log: &mut ExperimentLog, reps: usize) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    pool::with_pool(&ThreadPool::new(1), || {
        let attn = MultiHeadAttention::new(32, 4);
        let mut params = vec![0.0f32; attn.param_len()];
        attn.init_params(&mut params, &mut rng);
        let x = Tensor::randn(&[3, 6, 32], &mut rng);
        // Warm pass: grows the per-thread pack scratch.
        let (y, cache) = attn.forward(&params, &x, &x, &AttnMask::Causal);
        let dy = Tensor::randn(y.shape(), &mut rng);
        std::hint::black_box(attn.backward(&params, &cache, &dy));

        let registry = MetricsRegistry::new();
        let kernel_metrics = pipemare_tensor::install_kernel_metrics(&registry);
        let before = ALLOC.calls();
        let (_, cache) = attn.forward(&params, &x, &x, &AttnMask::Causal);
        std::hint::black_box(attn.backward(&params, &cache, &dy));
        let allocs = ALLOC.calls() - before;
        pipemare_tensor::uninstall_kernel_metrics();
        let calls = |kind| kernel_metrics.calls(kind).get();
        let products = [KernelKind::Gemm, KernelKind::GemmNt, KernelKind::GemmTn, KernelKind::Bmm];
        log.push_scalar("attn.allocs_fwd_bwd", allocs as f64);
        log.push_scalar("attn.permute_calls", calls(KernelKind::Permute) as f64);
        log.push_scalar(
            "attn.kernel_calls_fwd_bwd",
            products.iter().map(|&k| calls(k)).sum::<u64>() as f64,
        );

        let fwd = 1e6
            * median_secs(reps, || {
                std::hint::black_box(attn.forward(&params, &x, &x, &AttnMask::Causal));
            });
        let bwd = 1e6
            * median_secs(reps, || {
                std::hint::black_box(attn.backward(&params, &cache, &dy));
            });
        println!("    attention 3x6x32 h4  fwd {fwd:>8.2} us  bwd {bwd:>8.2} us");
        log.push_scalar("metric.attn.fwd_us", fwd);
        log.push_scalar("metric.attn.bwd_us", bwd);
    });
}

/// Fastest-of-`rounds` nanoseconds per call of `f` and of `g`, the two
/// timed in alternating batches so that a slow spell of the host falls on
/// both.
fn duel_ns(rounds: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let batch = |h: &mut dyn FnMut()| {
        let mut iters = 1usize;
        loop {
            let start = Instant::now();
            (0..iters).for_each(|_| h());
            if start.elapsed().as_secs_f64() > 5e-5 {
                return iters;
            }
            iters *= 2;
        }
    };
    let (nf, ng) = (batch(&mut f), batch(&mut g));
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        let start = Instant::now();
        (0..nf).for_each(|_| f());
        best.0 = best.0.min(start.elapsed().as_secs_f64() * 1e9 / nf as f64);
        let start = Instant::now();
        (0..ng).for_each(|_| g());
        best.1 = best.1.min(start.elapsed().as_secs_f64() * 1e9 / ng as f64);
    }
    best
}

/// No-pack against blocked on one dense product, nanoseconds each.
fn no_pack_vs_blocked(rounds: usize, layout: Layout, m: usize, k: usize, n: usize) -> (f64, f64) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
    let a = Tensor::randn(&[m * k], &mut rng);
    let b = Tensor::randn(&[k * n], &mut rng);
    let (mut c1, mut c2) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    let p = Product::dense(layout, m, k, n);
    duel_ns(
        rounds,
        || {
            kernels::gemm_no_pack(&p, a.data(), b.data(), &mut c1);
            std::hint::black_box(&mut c1);
        },
        || {
            kernels::gemm_blocked(layout, a.data(), b.data(), &mut c2, m, k, n);
            std::hint::black_box(&mut c2);
        },
    )
}

/// The small products of a transformer microbatch, and the cross-over
/// sweep behind `kernels::no_pack_is_faster`: all informational.
fn small_gemm_section(log: &mut ExperimentLog, rounds: usize) {
    let name = |l: Layout| format!("{l:?}").to_lowercase();
    pool::with_pool(&ThreadPool::new(1), || {
        for (m, k, n) in [(18, 32, 32), (18, 32, 64)] {
            let (np, bl) = no_pack_vs_blocked(rounds, Layout::NN, m, k, n);
            println!("    {m}x{k}x{n} nn        no-pack {np:>8.0} ns  blocked {bl:>8.0} ns");
            log.push_scalar(&format!("metric.small_gemm.no_pack_ns.{m}x{k}x{n}"), np);
            log.push_scalar(&format!("metric.small_gemm.blocked_ns.{m}x{k}x{n}"), bl);
        }
        // Attention scores of one microbatch: 12 heads of (6×8)·(6×8)ᵀ as
        // column blocks of two (18, 32) projections, one batched call,
        // against twelve dense calls on copied-out heads.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
        let (q, kk) = (Tensor::randn(&[18, 32], &mut rng), Tensor::randn(&[18, 32], &mut rng));
        let (qh, kh) = (Tensor::randn(&[12, 6, 8], &mut rng), Tensor::randn(&[12, 6, 8], &mut rng));
        let p = Product { layout: Layout::NT, m: 6, k: 8, n: 6, lda: 32, ldb: 32, ldc: 6 };
        let heads = BatchStride { group: 6 * 32, head: 8 };
        let scores = BatchStride { group: 4 * 36, head: 36 };
        let mut s1 = vec![0.0f32; 12 * 36];
        let (strided, per_head) = duel_ns(
            rounds,
            || {
                kernels::gemm_batched(&p, 3, 4, q.data(), heads, kk.data(), heads, &mut s1, scores);
                std::hint::black_box(&mut s1);
            },
            || {
                std::hint::black_box(qh.bmm_nt(&kh));
            },
        );
        println!("    12x(6x8x6) nt      strided {strided:>8.0} ns  bmm_nt  {per_head:>8.0} ns");
        log.push_scalar("metric.small_gemm.heads_strided_ns.12x6x8x6", strided);
        log.push_scalar("metric.small_gemm.heads_bmm_nt_ns.12x6x8x6", per_head);

        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            for (m, k, n) in sweep_shapes() {
                let (np, bl) = no_pack_vs_blocked(rounds, layout, m, k, n);
                let no_pack = kernels::no_pack_is_faster(layout, m, k, n);
                let side = if no_pack { "no-pack" } else { "blocked" };
                println!(
                    "    sweep {} {m:>3}x{k:>3}x{n:>4}  no-pack/blocked {:>5.2}  -> {side}",
                    name(layout),
                    np / bl
                );
                let shape = format!("{}.{m}x{k}x{n}", name(layout));
                log.push_scalar(&format!("metric.small_gemm.sweep.{shape}"), np / bl);
                log.push_scalar(&format!("small_gemm.side.{shape}"), f64::from(u8::from(!no_pack)));
            }
        }
    });
}

/// Rows and `(depth, columns)` of the cross-over sweep: small products
/// around `k·n = 8192` …
const SWEEP_M: &[usize] = &[2, 6, 12, 16, 18, 24, 32, 64, 96];
const SWEEP_KN: &[(usize, usize)] =
    &[(8, 8), (16, 16), (16, 32), (32, 32), (32, 64), (64, 64), (64, 128), (128, 128), (256, 128)];
/// … and short products over large B: a served request's stages
/// (64×512, 512×512, 512×10) and widemlp's first layer (640×1024).
const SHORT_M: &[usize] = &[1, 2, 3, 4, 6, 8, 12, 15, 16];
const SHORT_KN: &[(usize, usize)] = &[(64, 512), (512, 512), (512, 10), (128, 128), (640, 1024)];

/// Both grids, each shape once, in a fixed order.
fn sweep_shapes() -> Vec<(usize, usize, usize)> {
    let grid = |ms: &'static [usize], kns: &'static [(usize, usize)]| {
        kns.iter().flat_map(move |&(k, n)| ms.iter().map(move |&m| (m, k, n)))
    };
    let mut shapes: Vec<_> = grid(SWEEP_M, SWEEP_KN).collect();
    for shape in grid(SHORT_M, SHORT_KN) {
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    shapes
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let shapes = if smoke { SMOKE_SHAPES } else { SHAPES };
    let reps = if smoke { 3 } else { 9 };
    let variants = variants(if smoke { &[2] } else { THREADS });

    let mut log = ExperimentLog::new("bench_gemm_kernels");
    log.push_scalar(
        "host_parallelism",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64,
    );

    let mut criterion = Criterion::default().sample_size(if smoke { 3 } else { 10 });
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    // name -> per-shape median seconds, in SHAPES order.
    let mut times: Vec<(String, Vec<f64>)> =
        variants.iter().map(|v| (v.name.to_string(), Vec::new())).collect();

    for &(label, m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        // The blocked kernel is the bit-exactness reference: every
        // production variant (blocked, pool_N) must match it exactly.
        // The naive baseline uses plain multiply-then-add instead of
        // FMA, so it is checked within a per-element tolerance.
        let reference = run_variant(&variants[1], &a, &b, m, k, n);
        let mut group = criterion.benchmark_group(&format!("gemm_kernels/{label}"));
        for (vi, variant) in variants.iter().enumerate() {
            let out = run_variant(variant, &a, &b, m, k, n);
            if variant.name == "naive" {
                let max_abs = reference.data().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                for (got, want) in out.data().iter().zip(reference.data().iter()) {
                    assert!(
                        (got - want).abs() <= 1e-4 * max_abs.max(1.0),
                        "{label}/naive: {got} vs blocked {want}"
                    );
                }
            } else {
                assert_eq!(
                    out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{label}/{}: result diverged from blocked kernel",
                    variant.name
                );
            }
            group.bench_function(variant.name, |bench| {
                bench.iter(|| std::hint::black_box(run_variant(variant, &a, &b, m, k, n)));
            });
            let secs = median_secs(reps, || {
                std::hint::black_box(run_variant(variant, &a, &b, m, k, n));
            });
            let gflops = 2.0 * (m * k * n) as f64 / secs / 1e9;
            println!(
                "    {:<10} median {:>9.3} ms  {:>7.2} GFLOP/s",
                variant.name,
                secs * 1e3,
                gflops
            );
            times[vi].1.push(secs);
        }
        group.finish();
    }

    for ((name, secs), variant) in times.iter().zip(variants.iter()) {
        log.push_series(&format!("seconds.{name}"), secs.iter().copied());
        let gflops = shapes
            .iter()
            .zip(secs.iter())
            .map(|(&(_, m, k, n), &s)| 2.0 * (m * k * n) as f64 / s / 1e9);
        log.push_series(&format!("gflops.{name}"), gflops);
        let level = dispatch_level(variant);
        log.push_scalar(&format!("dispatch.{name}"), level_code(level));
        println!("  dispatch {:<10} -> {}", name, level.name());
    }
    if !smoke {
        // Headline scalars at 512^3 (shape index 2); the smoke shapes
        // don't include it.
        let idx512 = 2;
        let naive = times[0].1[idx512];
        let blocked = times[1].1[idx512];
        log.push_scalar("speedup_blocked_vs_naive_512", naive / blocked);
        for (name, secs) in times.iter().skip(2) {
            log.push_scalar(&format!("speedup_{name}_vs_naive_512"), naive / secs[idx512]);
        }
        // Informational (as `check_bench` treats the key): the dispatched
        // tier against the portable scalar microkernel on the 512³
        // headline shape. Not asserted — under `target-cpu=native` the
        // compiler vectorises the "scalar" tile itself, so the ratio is a
        // property of the host and the build, not of the kernels; their
        // agreement is what the bit-exactness assertions above hold.
        let scalar_s = times.iter().find(|(n, _)| n == "scalar").expect("scalar variant").1[idx512];
        let simd_s = times.iter().find(|(n, _)| n == "simd").expect("simd variant").1[idx512];
        let simd_speedup = scalar_s / simd_s;
        log.push_scalar("speedup_simd_vs_scalar_512", simd_speedup);
        println!(
            "  simd-vs-scalar @ 512^3: {simd_speedup:.2}x ({} tier)",
            kernels::simd_level().name()
        );
    }
    conv_section(&mut log, if smoke { 9 } else { 51 });
    attention_section(&mut log, if smoke { 9 } else { 201 });
    small_gemm_section(&mut log, if smoke { 3 } else { 40 });
    match log.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write experiment log: {e}"),
    }
    if smoke {
        println!("\ngemm_kernels smoke OK ({} shapes, bit-exact across variants)", shapes.len());
    }
}
