//! Shard tensors cross the wire in `SHARD_CHUNK`-value frames (protocol
//! v5), in tier-1. Over loopback workers whose shards span two full
//! chunks and a ragged tail:
//!
//! * every read fills exactly what the in-process stage's `read_into`
//!   returns, and every gradient stages exactly what it stages, under
//!   each sparse mode;
//! * a chunk run broken mid-shard is a typed protocol error, never a
//!   hang;
//! * no worker allocates more than one chunk frame on the step path;
//! * per-frame jitter on both ends of every link moves no bit.
//!
//! The tests take one lock, so the allocation bound sees only its own
//! workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare::comms::codec::{ChunkEncoder, Reader, Writer};
use pipemare::comms::protocol::encode_message;
use pipemare::comms::{
    channel, gather_shards, handshake_worker, loopback_pair, plan, run_stage_worker_opts,
    shard_chunks, spawn_loopback_workers, CommsError, DistributedTrainer, FrameRx, FrameTx,
    GradHead, LocalShards, Message, PassKind, Receiver, RunLayout, Sender, SparseMode,
    TensorPayload, Transport, WorkerHandle, WorkerLink, WorkerOptions, PROTOCOL_VERSION,
    SHARD_CHUNK,
};
use pipemare::core::{dist_config, PipelineTrainer, RecomputeCfg, TrainConfig};
use pipemare::nn::{ImageBatch, Mlp};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::Method;
use pipemare::telemetry::TraceRecorder;
use pipemare::tensor::{StoragePrecision, Tensor};

mod common;
use common::within;

// --- The largest allocation off the driver thread -------------------------

/// Passes every call to the system allocator and, while recording,
/// remembers the largest block asked for by any thread but the driver.
struct LargestOffDriver;

static RECORDING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static DRIVER: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if RECORDING.load(Relaxed) && !DRIVER.try_with(Cell::get).unwrap_or(true) {
        LARGEST.fetch_max(size, Relaxed);
    }
}

unsafe impl GlobalAlloc for LargestOffDriver {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestOffDriver = LargestOffDriver;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// --- The model, its data and its links -------------------------------------

const SEED: u64 = 23;
const TIMEOUT: Duration = Duration::from_secs(5);

/// At two stages, shards of 131 584 and 133 898 parameters: two full
/// chunks and a ragged tail each.
fn model() -> Mlp {
    Mlp::new(&[256, 512, 256, 10])
}

/// `n_micro` microbatches of eight samples in two separable blobs.
fn minibatch(step: usize, n_micro: usize) -> Vec<ImageBatch> {
    let mut rng = StdRng::seed_from_u64(SEED + 1 + step as u64);
    (0..n_micro)
        .map(|_| {
            let mut x = Tensor::randn(&[8, 256], &mut rng);
            let y: Vec<usize> = (0..8).map(|i| i % 2).collect();
            for i in 0..8 {
                let shift = if i % 2 == 0 { 1.0 } else { -1.0 };
                x.data_mut()[i * 256..i * 256 + 16].iter_mut().for_each(|v| *v += shift);
            }
            ImageBatch { x, y }
        })
        .collect()
}

fn momentum() -> OptimizerKind {
    OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 }
}

/// PipeMare T1 + T2 at P = 2, N = 2, replaying with its own T2 term.
fn pipemare_recompute(storage: StoragePrecision) -> TrainConfig {
    let mut c = TrainConfig::pipemare(
        2,
        2,
        momentum(),
        Box::new(ConstantLr(0.05)),
        T1Rescheduler::new(8),
        0.9,
    );
    c.recompute = Some(RecomputeCfg::new(2).with_t2());
    c.weight_storage = storage;
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn spawn_worker(transport: Box<dyn Transport>) -> WorkerHandle {
    std::thread::spawn(move || {
        let (tx, rx) = channel(transport)?;
        run_stage_worker_opts(tx, rx, WorkerOptions::default())
    })
}

/// One loopback worker per stage of `cfg`, seeded, next to the same
/// stages in process.
struct Mirrored {
    layout: RunLayout,
    links: Vec<WorkerLink>,
    workers: Vec<WorkerHandle>,
    local: LocalShards,
}

impl Mirrored {
    fn new(cfg: &TrainConfig) -> Self {
        let layout = RunLayout::new(&model(), cfg, SEED);
        let local = LocalShards::new(cfg, &layout).expect("in-process stages");
        let clock = TraceRecorder::with_tracks(1);
        let (mut links, mut workers) = (Vec::new(), Vec::new());
        for (sc, &(lo, hi)) in layout.stage_cfgs.iter().zip(layout.partition.ranges()) {
            let len = hi - lo;
            assert!(len > 2 * SHARD_CHUNK && len % SHARD_CHUNK != 0, "stage shard of {len}");
            let (driver, worker) = loopback_pair();
            workers.push(spawn_worker(Box::new(worker)));
            let mut link = handshake_worker(Box::new(driver), sc.clone(), Some(TIMEOUT), &clock)
                .expect("handshake");
            link.send(&Message::InitShard { params: layout.params[lo..hi].to_vec() })
                .expect("initial shard");
            links.push(link);
        }
        Mirrored { layout, links, workers, local }
    }

    /// Stages and commits `step` everywhere: each worker receives its
    /// slice of `grad` in chunks under `mode`, each in-process stage the
    /// whole slice as today's encoding decodes it. Votes and norms must
    /// agree bit for bit.
    fn step(&mut self, step: u64, grad: &[f32], mode: SparseMode) {
        for (s, link) in self.links.iter_mut().enumerate() {
            let (lo, hi) = self.layout.partition.range(s);
            let head = GradHead { step, lr: 0.05, apply: true, trace: step + 1 };
            link.send_grad(head, &grad[lo..hi], mode).expect("gradient chunks");
            let decoded = TensorPayload::from_dense(&grad[lo..hi], mode).into_dense();
            let (sq, finite) = self.local.stages[s].apply_grad(step, 0.05, true, &decoded).unwrap();
            match link.recv().expect("a vote") {
                Message::StepAck { sq_norm, finite: f, .. } => {
                    assert_eq!((sq_norm.to_bits(), f), (sq.to_bits(), finite), "{mode:?} stage {s}")
                }
                other => panic!("expected StepAck, got {}", other.name()),
            }
            link.send(&Message::Commit { step, keep: true }).expect("commit");
            let sq = self.local.stages[s].commit(step, true).unwrap();
            match link.recv().expect("a commit ack") {
                Message::CommitAck { sq_norm, .. } => assert_eq!(sq_norm.to_bits(), sq.to_bits()),
                other => panic!("expected CommitAck, got {}", other.name()),
            }
        }
    }

    /// What every stage's worker returns for `pass` of `(step, micro)`,
    /// checked against the in-process stage's `read_into`.
    fn assert_reads_match(&mut self, step: u64, micro: u32, pass: PassKind) {
        for (s, link) in self.links.iter_mut().enumerate() {
            let (sc, stage) = (&self.layout.stage_cfgs[s], &self.local.stages[s]);
            let read = plan(sc, &self.layout.clock, step, micro, pass).expect("a planned read");
            let mut want = vec![0.0f32; stage.len()];
            stage.read_into(read, &mut want).expect("the in-process read");
            let mut got = vec![f32::NAN; stage.len()];
            let ranges = [(0, stage.len())];
            gather_shards(std::slice::from_mut(link), &ranges, step, micro, pass, &mut got)
                .expect("the chunked read");
            assert_eq!(bits(&got), bits(&want), "stage {s}, {pass:?} of ({step}, {micro})");
        }
    }

    fn shutdown(mut self) {
        for link in &mut self.links {
            link.send(&Message::Shutdown).expect("shutdown");
            assert!(matches!(link.recv(), Ok(Message::Telemetry { .. })));
            assert!(matches!(link.recv(), Ok(Message::ShutdownAck { .. })));
        }
        for w in self.workers {
            w.join().expect("worker thread").expect("a clean worker exit");
        }
    }
}

/// A gradient whose first chunk per stage is dense and large — most of
/// it survives every sparse mode, so that chunk travels dense — and
/// whose other chunks are one value in sixteen, small: each sparse
/// mode still goes sparse over the whole shard.
fn structured_grad(layout: &RunLayout, rng: &mut StdRng) -> Vec<f32> {
    let mut grad = vec![0.0f32; layout.params.len()];
    for &(lo, hi) in layout.partition.ranges() {
        for (i, g) in grad[lo..hi].iter_mut().enumerate() {
            let u = rng.gen_range(-1.0f32..1.0);
            *g = match i {
                i if i < SHARD_CHUNK && i % 8 != 0 => 10.0 * u,
                i if i >= SHARD_CHUNK && i % 16 == 0 => u,
                _ => 0.0,
            };
        }
    }
    grad
}

// --- Parity ----------------------------------------------------------------

#[test]
fn every_pass_kind_fills_what_read_into_returns() {
    within("every_pass_kind_fills_what_read_into_returns", || {
        let _serial = serial();
        for storage in [StoragePrecision::F32, StoragePrecision::Bf16] {
            let mut wire = Mirrored::new(&pipemare_recompute(storage));
            let mut rng = StdRng::seed_from_u64(SEED);
            let n = wire.layout.params.len();
            for step in 0..4u64 {
                let grad: Vec<f32> =
                    Tensor::randn(&[n], &mut rng).data().iter().map(|g| 0.1 * g).collect();
                wire.step(step, &grad, SparseMode::Dense);
                for micro in 0..2 {
                    for pass in [PassKind::Fwd, PassKind::Bkwd, PassKind::Recomp, PassKind::Latest]
                    {
                        wire.assert_reads_match(step + 1, micro, pass);
                    }
                }
            }
            wire.shutdown();
        }
    })
}

#[test]
fn sparse_gradients_stage_what_the_in_process_stages_stage() {
    within("sparse_gradients_stage_what_the_in_process_stages_stage", || {
        let _serial = serial();
        let modes = [
            SparseMode::Dense,
            SparseMode::DropZeros,
            SparseMode::Threshold(2.0),
            SparseMode::TopK(0.3),
        ];
        for mode in modes {
            let mut wire = Mirrored::new(&pipemare_recompute(StoragePrecision::F32));
            let mut rng = StdRng::seed_from_u64(SEED + 7);
            for step in 0..2u64 {
                let grad = structured_grad(&wire.layout, &mut rng);
                for &(lo, hi) in wire.layout.partition.ranges() {
                    assert_chunks_decode_to_the_whole_shard_encoding(&grad[lo..hi], mode);
                }
                wire.step(step, &grad, mode);
                wire.assert_reads_match(step + 1, 0, PassKind::Latest);
            }
            wire.shutdown();
        }
    })
}

/// The chunk payloads of `grad`, decoded and laid end to end, are what
/// the whole-shard encoding decodes to; under top-k they carry exactly
/// the entries it keeps.
fn assert_chunks_decode_to_the_whole_shard_encoding(grad: &[f32], mode: SparseMode) {
    let whole = TensorPayload::from_dense(grad, mode);
    if mode != SparseMode::Dense {
        assert!(matches!(whole, TensorPayload::Sparse { .. }), "{mode:?} goes sparse");
    }
    let encoder = ChunkEncoder::new(grad, mode);
    let mut joined = Vec::with_capacity(grad.len());
    for range in shard_chunks(grad.len()) {
        let mut w = Writer::new();
        encoder.encode(&mut w, range.clone());
        let bytes = w.into_bytes();
        assert!(bytes.len() <= 5 + 4 * range.len(), "{mode:?}: no chunk outgrows its dense form");
        let mut r = Reader::new(&bytes);
        joined.extend(TensorPayload::decode(&mut r).expect("a valid chunk").into_dense());
        r.finish().expect("nothing after the chunk");
    }
    assert_eq!(bits(&joined), bits(&whole.clone().into_dense()), "{mode:?}");
    if let (SparseMode::TopK(_), TensorPayload::Sparse { idx, .. }) = (mode, whole) {
        let kept: Vec<u32> =
            (0..grad.len() as u32).filter(|&i| joined[i as usize] != 0.0).collect();
        assert_eq!(kept, idx, "top-k keeps the whole shard's selection");
    }
}

// --- Faults ----------------------------------------------------------------

fn stage0_len() -> usize {
    let layout = RunLayout::new(&model(), &pipemare_recompute(StoragePrecision::F32), SEED);
    layout.partition.range(0).1 - layout.partition.range(0).0
}

/// Stage 0's worker of the two-stage wide model, handshaken and seeded,
/// driven frame by frame.
fn raw_worker() -> (Sender, Receiver, WorkerHandle) {
    let cfg = pipemare_recompute(StoragePrecision::F32);
    let layout = RunLayout::new(&model(), &cfg, SEED);
    let (lo, hi) = layout.partition.range(0);
    let (driver, worker) = loopback_pair();
    let handle = spawn_worker(Box::new(worker));
    let (mut tx, mut rx) = channel(Box::new(driver)).expect("driver end");
    rx.set_timeout(Some(TIMEOUT)).unwrap();
    tx.send(&Message::Hello(layout.stage_cfgs[0].clone())).unwrap();
    assert!(matches!(rx.recv(), Ok(Message::HelloAck { .. })));
    tx.send(&Message::InitShard { params: layout.params[lo..hi].to_vec() }).unwrap();
    (tx, rx, handle)
}

#[test]
fn a_broken_gradient_stream_is_a_typed_protocol_error() {
    within("a_broken_gradient_stream_is_a_typed_protocol_error", || {
        let _serial = serial();
        let chunk = |step: u64, n: usize| Message::GradShard {
            step,
            lr: 0.05,
            apply: true,
            trace: 1,
            data: TensorPayload::Dense(vec![0.01; n]),
        };
        let commit = Message::Commit { step: 0, keep: true };
        let fetch = Message::FetchShard { step: 0, micro: 0, pass: PassKind::Fwd };
        let len = stage0_len();
        let tail = len % SHARD_CHUNK;
        let cases: [(&str, Vec<Message>); 6] = [
            (
                "a chunk of another step mid-stream",
                vec![chunk(0, SHARD_CHUNK), chunk(1, SHARD_CHUNK)],
            ),
            ("a Commit before the last chunk", vec![chunk(0, SHARD_CHUNK), commit]),
            ("a FetchShard before the last chunk", vec![chunk(0, SHARD_CHUNK), fetch]),
            (
                "a surplus chunk",
                vec![chunk(0, SHARD_CHUNK), chunk(0, SHARD_CHUNK), chunk(0, tail), chunk(0, tail)],
            ),
            ("a whole-shard gradient frame", vec![chunk(0, len)]),
            ("a short chunk", vec![chunk(0, SHARD_CHUNK), chunk(0, SHARD_CHUNK - 1)]),
        ];
        for (what, frames) in cases {
            let (mut tx, mut rx, worker) = raw_worker();
            let started = Instant::now();
            for frame in &frames {
                tx.send(frame).unwrap();
            }
            let refused = loop {
                match rx.recv() {
                    Ok(Message::StepAck { .. }) => continue,
                    other => break other,
                }
            };
            assert!(matches!(refused, Ok(Message::Error { .. })), "{what}: {refused:?}");
            assert!(started.elapsed() < TIMEOUT, "{what}: refused promptly");
            let ended = worker.join().expect("worker thread");
            assert!(matches!(ended, Err(CommsError::Protocol(_))), "{what}: {ended:?}");
        }
    })
}

#[test]
fn a_reply_chunk_of_the_wrong_length_is_a_typed_protocol_error() {
    within("a_reply_chunk_of_the_wrong_length_is_a_typed_protocol_error", || {
        let _serial = serial();
        let layout = RunLayout::new(&model(), &pipemare_recompute(StoragePrecision::F32), SEED);
        let len = stage0_len();
        // A peer answering with the whole shard in one frame, as a v4 worker
        // would, and one whose second chunk comes up short.
        for replies in [vec![len], vec![SHARD_CHUNK, SHARD_CHUNK - 1]] {
            let (driver, worker) = loopback_pair();
            let fake = std::thread::spawn(move || {
                let (mut tx, mut rx) = channel(Box::new(worker)).unwrap();
                let Ok(Message::Hello(sc)) = rx.recv() else { panic!("expected Hello") };
                let ack =
                    Message::HelloAck { protocol: PROTOCOL_VERSION, stage: sc.stage, clock_us: 0 };
                tx.send(&ack).unwrap();
                assert!(matches!(rx.recv(), Ok(Message::InitShard { .. })));
                let Ok(Message::FetchShard { step, micro, pass }) = rx.recv() else {
                    panic!("expected FetchShard")
                };
                for n in replies {
                    let data = TensorPayload::Dense(vec![0.5; n]);
                    tx.send(&Message::Shard { step, micro, pass, stage: sc.stage, trace: 1, data })
                        .unwrap();
                }
                // Hold the link open until the driver has judged the reply.
                let _ = rx.recv();
            });
            let clock = TraceRecorder::with_tracks(1);
            let sc = layout.stage_cfgs[0].clone();
            let mut link = handshake_worker(Box::new(driver), sc, Some(TIMEOUT), &clock).unwrap();
            link.send(&Message::InitShard { params: vec![0.0; len] }).unwrap();
            let mut dst = vec![0.0f32; len];
            let got = gather_shards(
                std::slice::from_mut(&mut link),
                &[(0, len)],
                0,
                0,
                PassKind::Latest,
                &mut dst,
            );
            assert!(matches!(got, Err(CommsError::Protocol(_))), "{got:?}");
            drop(link);
            fake.join().expect("the fake worker exits once the link closes");
        }
    })
}

// --- Memory ----------------------------------------------------------------

#[test]
fn no_worker_allocation_exceeds_one_chunk_frame_in_steady_state() {
    within("no_worker_allocation_exceeds_one_chunk_frame_in_steady_state", || {
        let _serial = serial();
        // f32 storage: a step builds the next version in the buffer of the
        // one it evicts once the window is full (a bf16 window cannot
        // recycle its oldest buffer).
        let cfg = || pipemare_recompute(StoragePrecision::F32);
        let m = model();
        let dcfg = dist_config(cfg(), SparseMode::Dense, Some(TIMEOUT)).expect("a pipeline mode");
        let (transports, workers) = spawn_loopback_workers(2);
        let mut trainer =
            DistributedTrainer::connect(&m, dcfg, SEED, transports).expect("handshake");
        DRIVER.with(|d| d.set(true));
        // Stage 0 keeps ⌈3/2⌉ + 1 = 3 versions: full after two commits.
        for step in 0..4 {
            trainer.train_minibatch(&minibatch(step, 2), &[0.5, 0.5]).expect("a step");
        }
        LARGEST.store(0, Relaxed);
        RECORDING.store(true, Relaxed);
        for step in 4..7 {
            trainer.train_minibatch(&minibatch(step, 2), &[0.5, 0.5]).expect("a steady-state step");
        }
        RECORDING.store(false, Relaxed);
        DRIVER.with(|d| d.set(false));
        trainer.shutdown().expect("shutdown");
        for w in workers {
            w.join().expect("worker thread").expect("a clean worker exit");
        }
        let empty = Message::Shard {
            step: 0,
            micro: 0,
            pass: PassKind::Fwd,
            stage: 0,
            trace: 0,
            data: TensorPayload::Dense(Vec::new()),
        };
        let chunk_frame = encode_message(&empty).len() + 4 * SHARD_CHUNK;
        let largest = LARGEST.load(Relaxed);
        assert!(largest > 0, "the workers allocate while they serve");
        assert!(
            largest <= chunk_frame,
            "a worker allocated {largest} B, one chunk frame is {chunk_frame} B"
        );
    })
}

// --- Jitter ----------------------------------------------------------------

/// A transport that sleeps a seeded 0–200 µs before every frame it sends
/// or receives.
struct Jittered {
    inner: Box<dyn Transport>,
    seed: u64,
}

struct JitterTx(Box<dyn FrameTx>, StdRng);
struct JitterRx(Box<dyn FrameRx>, StdRng);

fn jitter(rng: &mut StdRng) {
    std::thread::sleep(Duration::from_micros(rng.gen_range(0..=200)));
}

impl Transport for Jittered {
    fn split(self: Box<Self>) -> Result<(Box<dyn FrameTx>, Box<dyn FrameRx>), CommsError> {
        let (tx, rx) = self.inner.split()?;
        let (a, b) = (StdRng::seed_from_u64(self.seed), StdRng::seed_from_u64(!self.seed));
        Ok((Box::new(JitterTx(tx, a)), Box::new(JitterRx(rx, b))))
    }
}

impl FrameTx for JitterTx {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        jitter(&mut self.1);
        self.0.send_frame(payload)
    }
}

impl FrameRx for JitterRx {
    fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError> {
        jitter(&mut self.1);
        self.0.recv_frame()
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError> {
        self.0.set_timeout(timeout)
    }
}

const JITTER_STEPS: usize = 3;

/// Params and loss bits of a run over jittered loopback links.
fn jittered_run(cfg: TrainConfig, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let (stages, n_micro) = (cfg.stages, cfg.n_micro);
    let m = model();
    let dcfg = dist_config(cfg, SparseMode::Dense, Some(TIMEOUT)).expect("a pipeline mode");
    let (mut transports, mut workers) = (Vec::new(), Vec::new());
    for s in 0..stages as u64 {
        let (driver, worker) = loopback_pair();
        let seed = seed << 8 | s << 1;
        workers.push(spawn_worker(Box::new(Jittered { inner: Box::new(worker), seed })));
        transports.push(Box::new(Jittered { inner: Box::new(driver), seed: seed | 1 }) as _);
    }
    let mut trainer = DistributedTrainer::connect(&m, dcfg, SEED, transports).expect("handshake");
    let weights = vec![1.0 / n_micro as f32; n_micro];
    let loss = (0..JITTER_STEPS)
        .map(|t| trainer.train_minibatch(&minibatch(t, n_micro), &weights).expect("a step").loss)
        .collect::<Vec<f32>>();
    let params = trainer.gather_params().expect("gather");
    trainer.shutdown().expect("shutdown");
    for w in workers {
        w.join().expect("worker thread").expect("a clean worker exit");
    }
    (bits(&params), bits(&loss))
}

#[test]
fn per_frame_jitter_moves_no_bit() {
    within("per_frame_jitter_moves_no_bit", || {
        let _serial = serial();
        // GPipe, PipeDream and PipeMare T1 + T2 at P = 2, N = 2.
        let cfg = |method| {
            let (lr, opt) = (Box::new(ConstantLr(0.05)), momentum());
            match method {
                Method::GPipe => TrainConfig::gpipe(2, 2, opt, lr),
                Method::PipeDream => TrainConfig::pipedream(2, 2, opt, lr),
                Method::PipeMare => {
                    TrainConfig::pipemare(2, 2, opt, lr, T1Rescheduler::new(8), 0.9)
                }
            }
        };
        for method in Method::ALL {
            let m = model();
            let mut reference = PipelineTrainer::new(&m, cfg(method), SEED);
            let loss: Vec<f32> = (0..JITTER_STEPS)
                .map(|t| reference.train_minibatch(&minibatch(t, 2), &[0.5, 0.5]).loss)
                .collect();
            let want = (bits(reference.params()), bits(&loss));
            for seed in 0..8 {
                assert_eq!(jittered_run(cfg(method), seed), want, "{method:?}, jitter seed {seed}");
            }
        }
    })
}
