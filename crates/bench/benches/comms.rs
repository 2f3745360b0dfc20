//! Wire-codec throughput and loopback round-trip latency.
//!
//! Measures the dense and sparse gradient codec on a 64 Ki-element
//! tensor (100%, 10% and 1% nonzero density) and the Sender/Receiver
//! round-trip over the in-process loopback transport.
//!
//! It also drives the distributed trainer over loopback workers (P = 4,
//! N = 2) to put numbers on the version-aware shard traffic: how many
//! `FetchShard`s a steady-state step sends per method, how many bytes a
//! PipeMare step moves, and how many heap allocations one shard costs
//! on its way from a worker's weight history into the trainer's buffer.
//! A PipeMare run at the `widemlp` widths, whose shards span many
//! chunks, counts a step's frames and its largest frame, which chunking
//! bounds at one `SHARD_CHUNK` of values plus the frame head.
//!
//! The run writes `bench_comms.json` with:
//!
//! * deterministic keys gated byte-for-byte by `scripts/check_bench.sh`
//!   — exact wire sizes (`bytes.*`), the sparse-vs-dense byte-reduction
//!   ratios (`wire.sparse_reduction_*`), the framed control-message
//!   sizes (`bytes.frame_*`), the steady-state fetch counts
//!   (`fetches_per_step.*`), the PipeMare step's wire bytes
//!   (`bytes.wire_per_step_pipemare_p4n2`, worker telemetry excluded:
//!   it carries timestamps as text), `allocs.shard_roundtrip` and the
//!   wide run's `frames_per_step.pipemare_widemlp_p4n2` and
//!   `bytes.max_frame.pipemare_widemlp_p4n2` (either direction),
//!   identical in smoke and full modes;
//! * informational `seconds.*` timings (codec encode/decode throughput,
//!   loopback round-trip latency) that vary across hosts.
//!
//! The paper-level claim — sparse DropZeros encoding cuts wire bytes by
//! at least 3× at 1% gradient density — is asserted inside the bench,
//! so a codec regression fails the run itself, not just the diff.
//!
//! Passing `--test` anywhere runs a seconds-long smoke version; the
//! deterministic workload and keys are identical in both modes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare_bench::report::ExperimentLog;
use pipemare_comms::codec::{encode_dense, Reader, Writer};
use pipemare_comms::protocol::{decode_shard_into, encode_message, Message, ShardHead};
use pipemare_comms::{
    channel, loopback_pair, spawn_loopback_workers, CommsError, DistributedTrainer, FrameRx,
    FrameTx, PassKind, SparseMode, TensorPayload, Transport, SHARD_CHUNK,
};
use pipemare_core::{dist_config, TrainConfig};
use pipemare_nn::{ImageBatch, Mlp};
use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare_pipeline::Method;
use pipemare_tensor::{CountingAlloc, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Stated bound enforced by the bench: DropZeros at 1% density must cut
/// wire bytes by at least this factor vs the dense encoding. The ideal
/// ratio is ~2× the inverse density × 1/2 (8 bytes/nonzero vs 4
/// bytes/element), i.e. ~50× at 1%; 3× leaves a wide margin and matches
/// the acceptance criterion in EXPERIMENTS.md.
const BOUND_SPARSE_REDUCTION_D1: f64 = 3.0;

const N: usize = 65_536;

/// Seeded gradient with an exact nonzero count of `N * density`:
/// deterministic wire sizes, not just deterministic in expectation.
fn gradient(density: f64, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nonzero = ((N as f64) * density).round() as usize;
    let mut v = vec![0.0f32; N];
    let mut placed = 0usize;
    while placed < nonzero {
        let i = rng.gen_range(0..N);
        if v[i].to_bits() == 0 {
            v[i] = rng.gen_range(-1.0..1.0f32);
            if v[i].to_bits() == 0 {
                continue; // rejected a sampled exact zero
            }
            placed += 1;
        }
    }
    v
}

fn encode(p: &TensorPayload) -> Vec<u8> {
    let mut w = Writer::new();
    p.encode(&mut w);
    w.into_bytes()
}

fn decode(b: &[u8]) -> TensorPayload {
    let mut r = Reader::new(b);
    let p = TensorPayload::decode(&mut r).expect("bench payload decodes");
    r.finish().expect("no trailing bytes");
    p
}

/// What crossed the counted links in either direction.
#[derive(Default)]
struct Traffic {
    /// Payload bytes, worker telemetry excluded (its JSON carries
    /// timestamps, so its size is not a deterministic count).
    bytes: AtomicU64,
    /// Frames, telemetry included.
    frames: AtomicU64,
    /// The largest frame payload.
    max_frame: AtomicU64,
}

impl Traffic {
    fn count(&self, payload: &[u8], deterministic: bool) {
        if deterministic {
            self.bytes.fetch_add(payload.len() as u64, Relaxed);
        }
        self.frames.fetch_add(1, Relaxed);
        self.max_frame.fetch_max(payload.len() as u64, Relaxed);
    }
}

/// A transport that counts the frames crossing it into a [`Traffic`].
struct Counted {
    inner: Box<dyn Transport>,
    traffic: Arc<Traffic>,
}

struct CountedTx(Box<dyn FrameTx>, Arc<Traffic>);

struct CountedRx {
    inner: Box<dyn FrameRx>,
    traffic: Arc<Traffic>,
    /// First payload byte of a `Telemetry` frame.
    telemetry_tag: u8,
}

impl Transport for Counted {
    fn split(self: Box<Self>) -> Result<(Box<dyn FrameTx>, Box<dyn FrameRx>), CommsError> {
        let (tx, rx) = self.inner.split()?;
        let telemetry_tag =
            encode_message(&Message::Telemetry { stage: 0, jsonl: String::new() })[0];
        Ok((
            Box::new(CountedTx(tx, Arc::clone(&self.traffic))),
            Box::new(CountedRx { inner: rx, traffic: self.traffic, telemetry_tag }),
        ))
    }
}

impl FrameTx for CountedTx {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        self.1.count(payload, true);
        self.0.send_frame(payload)
    }
}

impl FrameRx for CountedRx {
    fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError> {
        let payload = self.inner.recv_frame()?;
        self.traffic.count(&payload, payload.first() != Some(&self.telemetry_tag));
        Ok(payload)
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError> {
        self.inner.set_timeout(timeout)
    }
}

/// One steady-state step's traffic.
struct StepTraffic {
    fetches: u64,
    bytes: u64,
    frames: u64,
    max_frame: u64,
}

/// One steady-state step of `method` at P = 4, N = 2 over loopback
/// workers: the ninth step of a seeded run of an MLP of `widths`, by
/// which every stage's delay window has filled.
fn steady_state_step(method: Method, widths: &[usize]) -> StepTraffic {
    const STAGES: usize = 4;
    const N_MICRO: usize = 2;
    let opt = OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 };
    let lr = || Box::new(ConstantLr(0.05));
    let cfg = match method {
        Method::GPipe => TrainConfig::gpipe(STAGES, N_MICRO, opt, lr()),
        Method::PipeDream => TrainConfig::pipedream(STAGES, N_MICRO, opt, lr()),
        Method::PipeMare => {
            TrainConfig::pipemare(STAGES, N_MICRO, opt, lr(), T1Rescheduler::new(20), 0.9)
        }
    };
    let traffic = Arc::new(Traffic::default());
    let (transports, workers) = spawn_loopback_workers(STAGES);
    let transports = transports
        .into_iter()
        .map(|inner| {
            Box::new(Counted { inner, traffic: Arc::clone(&traffic) }) as Box<dyn Transport>
        })
        .collect();
    let model = Mlp::new(widths);
    let (inputs, classes) = (widths[0], widths[widths.len() - 1]);
    let dcfg = dist_config(cfg, SparseMode::Dense, None).expect("a pipeline method");
    let mut trainer =
        DistributedTrainer::connect(&model, dcfg, 7, transports).expect("loopback handshake");
    let mut rng = StdRng::seed_from_u64(21);
    let mut step = |trainer: &mut DistributedTrainer<'_, Mlp>| {
        let micro: Vec<ImageBatch> = (0..N_MICRO)
            .map(|_| ImageBatch {
                x: Tensor::randn(&[4, inputs], &mut rng),
                y: (0..4).map(|i| i % classes).collect(),
            })
            .collect();
        let stats = trainer.train_minibatch(&micro, &[0.5, 0.5]).expect("a loopback step");
        assert!(!stats.diverged, "the bench workload must train");
    };
    for _ in 0..8 {
        step(&mut trainer);
    }
    traffic.max_frame.store(0, Relaxed);
    let fetches = trainer.shard_fetches();
    let (bytes, frames) = (traffic.bytes.load(Relaxed), traffic.frames.load(Relaxed));
    step(&mut trainer);
    let measured = StepTraffic {
        fetches: trainer.shard_fetches() - fetches,
        bytes: traffic.bytes.load(Relaxed) - bytes,
        frames: traffic.frames.load(Relaxed) - frames,
        max_frame: traffic.max_frame.load(Relaxed),
    };
    trainer.shutdown().expect("workers shut down");
    for w in workers {
        w.join().expect("worker thread").expect("worker result");
    }
    measured
}

/// Heap allocations one shard costs between a worker's weight history
/// and the trainer's buffer, transport excluded: encoded straight from
/// the stored values into the link's reused frame, decoded straight
/// into the destination slice.
fn shard_roundtrip_allocs(values: &[f32]) -> u64 {
    let head = ShardHead { step: 3, micro: 1, pass: PassKind::Fwd, stage: 0, trace: 2 };
    let mut frame = Vec::new();
    let mut dst = vec![0.0f32; values.len()];
    let mut roundtrip = |frame: &mut Vec<u8>| {
        Writer::refill(frame, |w| {
            head.encode(w);
            encode_dense(w, values.iter().copied());
        });
        assert_eq!(decode_shard_into(frame, &mut dst), Ok(Some(head)));
    };
    roundtrip(&mut frame); // the first reply sizes the frame buffer
    let before = ALLOC.calls();
    roundtrip(&mut frame);
    let allocs = ALLOC.calls() - before;
    assert_eq!(dst, values, "the shard must arrive intact");
    allocs
}

/// Median seconds of `reps` timed runs of `f`.
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let reps = if smoke { 3 } else { 9 };
    let codec_iters = if smoke { 20 } else { 200 };
    let roundtrips: u64 = if smoke { 500 } else { 5_000 };

    let mut log = ExperimentLog::new("bench_comms");
    log.push_scalar(
        "host_parallelism",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64,
    );
    log.push_scalar("bound_sparse_reduction_d1", BOUND_SPARSE_REDUCTION_D1);

    // --- Deterministic wire sizes (gated) ---------------------------
    let dense_grad = gradient(1.0, 11);
    let grad_d10 = gradient(0.10, 12);
    let grad_d1 = gradient(0.01, 13);

    let dense = TensorPayload::from_dense(&dense_grad, SparseMode::DropZeros);
    let sparse_d10 = TensorPayload::from_dense(&grad_d10, SparseMode::DropZeros);
    let sparse_d1 = TensorPayload::from_dense(&grad_d1, SparseMode::DropZeros);
    assert!(matches!(dense, TensorPayload::Dense(_)), "fully dense must stay dense on the wire");
    assert!(matches!(sparse_d1, TensorPayload::Sparse { .. }), "1% density must go sparse");

    let bytes_dense = dense.wire_bytes();
    let bytes_d10 = sparse_d10.wire_bytes();
    let bytes_d1 = sparse_d1.wire_bytes();
    let reduction_d10 = bytes_dense as f64 / bytes_d10 as f64;
    let reduction_d1 = bytes_dense as f64 / bytes_d1 as f64;

    println!("wire bytes for a {N}-element gradient shard:");
    println!("    dense            {bytes_dense:>9} B");
    println!("    sparse (10%)     {bytes_d10:>9} B  ({reduction_d10:.1}x smaller)");
    println!("    sparse ( 1%)     {bytes_d1:>9} B  ({reduction_d1:.1}x smaller)");

    log.push_scalar("bytes.dense_64k", bytes_dense as f64);
    log.push_scalar("bytes.sparse_64k_d10", bytes_d10 as f64);
    log.push_scalar("bytes.sparse_64k_d1", bytes_d1 as f64);
    log.push_scalar("wire.sparse_reduction_d10", reduction_d10);
    log.push_scalar("wire.sparse_reduction_d1", reduction_d1);

    assert!(
        reduction_d1 >= BOUND_SPARSE_REDUCTION_D1,
        "sparse encoding at 1% density only cut wire bytes {reduction_d1:.2}x \
         (stated bound {BOUND_SPARSE_REDUCTION_D1}x)"
    );

    // --- Version-aware shard traffic (gated) ------------------------
    println!("steady-state step at P=4, N=2 over loopback workers:");
    for method in Method::ALL {
        let StepTraffic { fetches, bytes, .. } = steady_state_step(method, &[16, 64, 48, 32, 4]);
        let name = method.name().to_lowercase();
        println!("    {name:<10} {fetches:>3} FetchShards  {bytes:>8} wire bytes");
        log.push_scalar(&format!("fetches_per_step.{name}_p4n2"), fetches as f64);
        if method == Method::PipeMare {
            log.push_scalar("bytes.wire_per_step_pipemare_p4n2", bytes as f64);
        }
    }
    // The widemlp widths: every stage's shard is several chunks long.
    let wide = steady_state_step(Method::PipeMare, &[640, 1024, 512, 256, 10]);
    let chunk_frame = encode_message(&Message::Shard {
        step: 0,
        micro: 0,
        pass: PassKind::Fwd,
        stage: 0,
        trace: 0,
        data: TensorPayload::Dense(Vec::new()),
    })
    .len() as u64
        + 4 * SHARD_CHUNK as u64;
    println!(
        "    pipemare at widemlp widths: {} frames, largest {} B (one chunk frame {chunk_frame} B)",
        wide.frames, wide.max_frame
    );
    assert!(wide.max_frame <= chunk_frame, "a step frame outgrew one chunk");
    log.push_scalar("frames_per_step.pipemare_widemlp_p4n2", wide.frames as f64);
    log.push_scalar("bytes.max_frame.pipemare_widemlp_p4n2", wide.max_frame as f64);
    let allocs = shard_roundtrip_allocs(&dense_grad);
    println!("heap allocations per shard round trip (reused frame, in-place decode): {allocs}");
    log.push_scalar("allocs.shard_roundtrip", allocs as f64);

    // --- Criterion codec microbenches -------------------------------
    let mut criterion = Criterion::default().sample_size(if smoke { 10 } else { 20 });
    let mut group = criterion.benchmark_group("comms/codec");
    group.bench_function("encode_dense_64k", |b| b.iter(|| encode(std::hint::black_box(&dense))));
    group.bench_function("encode_sparse_64k_d1", |b| {
        b.iter(|| encode(std::hint::black_box(&sparse_d1)))
    });
    let dense_bytes = encode(&dense);
    let sparse_bytes = encode(&sparse_d1);
    group.bench_function("decode_dense_64k", |b| {
        b.iter(|| decode(std::hint::black_box(&dense_bytes)))
    });
    group.bench_function("decode_sparse_64k_d1", |b| {
        b.iter(|| decode(std::hint::black_box(&sparse_bytes)))
    });
    group.finish();

    // --- Codec throughput (informational) ---------------------------
    let payloads: [(&str, &TensorPayload); 3] =
        [("dense", &dense), ("sparse_d10", &sparse_d10), ("sparse_d1", &sparse_d1)];
    let mut enc_secs = Vec::new();
    let mut dec_secs = Vec::new();
    println!("codec time per {N}-element payload (median of {reps} x {codec_iters} iters):");
    for (name, p) in payloads {
        let enc = median_secs(reps, || {
            for _ in 0..codec_iters {
                std::hint::black_box(encode(std::hint::black_box(p)));
            }
        }) / codec_iters as f64;
        let bytes = encode(p);
        let dec = median_secs(reps, || {
            for _ in 0..codec_iters {
                std::hint::black_box(decode(std::hint::black_box(&bytes)));
            }
        }) / codec_iters as f64;
        let gbs = bytes.len() as f64 / enc / 1e9;
        println!(
            "    {name:<11} encode {:>8.1} us ({gbs:.2} GB/s)  decode {:>8.1} us",
            enc * 1e6,
            dec * 1e6
        );
        enc_secs.push(enc);
        dec_secs.push(dec);
    }
    log.push_series("seconds.encode_payload", enc_secs);
    log.push_series("seconds.decode_payload", dec_secs);

    // --- Loopback round-trip latency --------------------------------
    // One echo thread answers Flush with FlushAck; the driver side
    // measures the full Sender→Receiver round trip through the codec,
    // the framing layer, and the loopback channel.
    let (a, b) = loopback_pair();
    let echo = std::thread::spawn(move || {
        let (mut tx, mut rx) = channel(Box::new(b) as Box<dyn Transport>).expect("echo channel");
        loop {
            match rx.recv().expect("echo recv") {
                Message::Flush { id } => {
                    tx.send(&Message::FlushAck { id, last_step: id }).expect("echo send")
                }
                Message::Shutdown => break,
                other => panic!("echo thread got unexpected {}", other.name()),
            }
        }
    });
    let (mut tx, mut rx) = channel(Box::new(a) as Box<dyn Transport>).expect("driver channel");
    let start = Instant::now();
    for id in 0..roundtrips {
        tx.send(&Message::Flush { id }).expect("driver send");
        match rx.recv().expect("driver recv") {
            Message::FlushAck { id: ack, .. } => assert_eq!(ack, id),
            other => panic!("driver got unexpected {}", other.name()),
        }
    }
    let rtt = start.elapsed().as_secs_f64() / roundtrips as f64;
    tx.send(&Message::Shutdown).expect("driver shutdown");
    echo.join().expect("echo thread");
    println!("loopback round-trip over {roundtrips} Flush/FlushAck pairs: {:.1} us", rtt * 1e6);
    log.push_scalar("seconds.loopback_roundtrip", rtt);
    // The control-message overhead per round trip is deterministic
    // (framed bytes incl. the u32 length prefix) and gated.
    let framed = |m: &Message| {
        pipemare_comms::codec::frame(&encode_message(m)).expect("control frame fits").len() as f64
    };
    log.push_scalar("bytes.frame_flush", framed(&Message::Flush { id: u64::MAX }));
    log.push_scalar(
        "bytes.frame_flush_ack",
        framed(&Message::FlushAck { id: u64::MAX, last_step: u64::MAX }),
    );

    match log.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write experiment log: {e}"),
    }
    if smoke {
        println!("\ncomms smoke OK (sparse d1 reduction {reduction_d1:.1}x within bound)");
    }
}
