//! The only file of the benchmark that names items of the repository.
//!
//! Everything else in `pmbench` talks to the system through what this
//! file exports: the workload catalogue, a training rig and a serving rig
//! built from the repository's public constructors, timing wrappers at
//! its public trait seams ([`TimedModel`], [`TimedInfer`],
//! [`TimedTransport`]) and isolated micro-timings of single layers.
//! `README.md` lists the items used here; a refactor of the repository
//! has to keep them compiling or change this file with it.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_comms::protocol::{decode_message, encode_message};
use pipemare_comms::{
    channel, loopback_pair, run_stage_worker_opts, CommsError, DistributedTrainer, FrameRx,
    FrameTx, Message, Receiver, RejectReason, Sender, SparseMode, StageWorkerReport, TcpTransport,
    TensorPayload, Transport, WorkerOptions,
};
use pipemare_core::{dist_config, PipelineTrainer, RecomputeCfg, TrainConfig};
use pipemare_data::{
    split_microbatches, ImageDataset, MinibatchIter, SyntheticImages, SyntheticTranslation,
    TranslationDataset,
};
use pipemare_nn::{
    AttnMask, BatchNorm2d, Cache, CifarResNet, Conv2d, Embedding, ImageBatch, InferModel, Layer,
    LayerNorm, Linear, Mlp, MultiHeadAttention, ResNetConfig, SeqBatch, ServeSplit, TrainModel,
    Transformer, TransformerConfig, WeightUnit,
};
use pipemare_optim::{
    clip_grad_norm, InverseSqrtLr, Optimizer, OptimizerKind, StepDecayLr, T1Rescheduler,
};
use pipemare_pipeline::{
    normalized_throughput, Method, PipelineClock, StagePartition, WeightHistory,
};
use pipemare_serve::{DynRecorder, InferClient, ServeConfig, ServeStats, Server, StagedEngine};
use pipemare_telemetry::{
    default_rules, AlertEngine, EventSource, FlightRecorder, JournalConfig, JournalWriter,
    LiveStore, MetricsRegistry, Recorder, SpanKind, StoreTicker,
};
use pipemare_tensor::kernels::{self, simd_level, SimdLevel};
use pipemare_tensor::{install_kernel_metrics, pool, uninstall_kernel_metrics, StoragePrecision};
use pipemare_tensor::{Tensor, ThreadPool};

use crate::alloc;
use crate::stats::{quantile, quiet_decile, Better};
use crate::trace;

// ---------------------------------------------------------------------------
// Workload catalogue
// ---------------------------------------------------------------------------

pub const RESNET: &str = "resnet_inproc";
pub const TRANSFORMER: &str = "transformer_recompute";
pub const WIDEMLP: &str = "widemlp_tcp";
pub const SERVE: &str = "serve_mlp_open";

/// Model initialisation and minibatch order never change: `--seed` feeds
/// the generated data and the arrival schedule only.
const INIT_SEED: u64 = 3;

/// Constants of one training workload. `measured_30s` is the number of
/// measured steps per round of a run that measures for 30 seconds.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub warmup: usize,
    pub measured_30s: usize,
    pub minibatch: usize,
    pub stages: usize,
    pub n_micro: usize,
    pub recompute: bool,
}

pub fn train_spec(workload: &str) -> Option<TrainSpec> {
    let spec = |warmup, measured_30s, minibatch, stages, n_micro, recompute| TrainSpec {
        warmup,
        measured_30s,
        minibatch,
        stages,
        n_micro,
        recompute,
    };
    match workload {
        RESNET => Some(spec(8, 120, 20, 16, 2, false)),
        TRANSFORMER => Some(spec(40, 700, 10, 12, 4, true)),
        WIDEMLP => Some(spec(6, 90, 32, 4, 2, false)),
        _ => None,
    }
}

/// Where the benchmark writes: `pmbench/out`, next to this crate's
/// manifest, so nothing lands outside the checkout it was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Pins the tensor pool to one thread. Must run before the first kernel
/// call, while the process is still single-threaded.
pub fn pin_pool_to_one_thread() {
    std::env::set_var("PIPEMARE_NUM_THREADS", "1");
    assert_eq!(pool::global().threads(), 1, "the tensor pool was created before it was pinned");
}

fn resnet_model() -> CifarResNet {
    CifarResNet::new(ResNetConfig::resnet50_standin(10))
}

fn resnet_data(seed: u64) -> ImageDataset {
    SyntheticImages::cifar_like(160, 80, seed).generate()
}

fn resnet_cfg(spec: &TrainSpec) -> TrainConfig {
    let steps_per_epoch = 160usize.div_ceil(spec.minibatch);
    TrainConfig::pipemare(
        spec.stages,
        spec.n_micro,
        OptimizerKind::resnet_momentum(5e-4),
        Box::new(StepDecayLr { base: 0.02, drop_every: 6 * steps_per_epoch, factor: 0.1 }),
        T1Rescheduler::new(2 * steps_per_epoch),
        0.5,
    )
}

/// Every sentence has six tokens, so every step multiplies the same
/// shapes and a step's time does not depend on which sentences it drew.
fn transformer_data(seed: u64) -> TranslationDataset {
    SyntheticTranslation {
        vocab: 8,
        min_len: 6,
        max_len: 6,
        train: 80,
        test: 24,
        reverse: true,
        seed,
    }
    .generate()
}

fn transformer_model(ds: &TranslationDataset) -> Transformer {
    Transformer::new(TransformerConfig::iwslt_standin(ds.total_vocab, ds.total_vocab))
}

fn transformer_cfg(spec: &TrainSpec) -> TrainConfig {
    let mut cfg = TrainConfig::pipemare(
        spec.stages,
        spec.n_micro,
        OptimizerKind::transformer_adamw(1e-4),
        Box::new(InverseSqrtLr { peak: 3e-3, warmup: 20, init: 1e-7 }),
        T1Rescheduler::new(60),
        0.1,
    );
    cfg.grad_clip = Some(25.0);
    cfg.recompute = Some(RecomputeCfg::optimal(spec.stages));
    cfg
}

const WIDEMLP_WIDTHS: [usize; 5] = [640, 1024, 512, 256, 10];

/// 10×8×8 "images" flatten to the MLP's 640 inputs.
fn widemlp_data(seed: u64) -> ImageDataset {
    SyntheticImages { classes: 10, channels: 10, size: 8, train: 256, test: 64, noise: 0.7, seed }
        .generate()
}

fn widemlp_cfg(spec: &TrainSpec) -> TrainConfig {
    TrainConfig::pipemare(
        spec.stages,
        spec.n_micro,
        OptimizerKind::resnet_momentum(0.0),
        Box::new(pipemare_optim::ConstantLr(0.005)),
        T1Rescheduler::new(16),
        0.5,
    )
}

// ---------------------------------------------------------------------------
// Timed wrappers at the public trait seams
// ---------------------------------------------------------------------------

/// A [`TrainModel`] that opens a span around every forward and backward
/// pass. Under recompute the trainer runs two forwards per microbatch;
/// the second one since the last backward is the recompute replay.
pub struct TimedModel<M> {
    inner: M,
    forwards_since_backward: AtomicU32,
    calls: AtomicU64,
    cache_bytes: AtomicU64,
    /// Allocation calls and bytes inside the model while tracing, and
    /// the backward passes they cover.
    traced: [AtomicU64; 3],
}

impl<M> TimedModel<M> {
    fn new(inner: M) -> Self {
        TimedModel {
            inner,
            forwards_since_backward: AtomicU32::new(0),
            calls: AtomicU64::new(0),
            cache_bytes: AtomicU64::new(0),
            traced: Default::default(),
        }
    }

    /// Runs one pass; while tracing, charges its allocations to the model.
    fn pass<R>(&self, name: &'static str, backward: bool, run: impl FnOnce() -> R) -> R {
        self.calls.fetch_add(1, Relaxed);
        if !trace::enabled() {
            return run();
        }
        let _span = trace::span(name);
        let before = alloc::totals();
        let out = run();
        let after = alloc::totals();
        self.traced[0].fetch_add(after.0 - before.0, Relaxed);
        self.traced[1].fetch_add(after.1 - before.1, Relaxed);
        self.traced[2].fetch_add(u64::from(backward), Relaxed);
        out
    }
}

impl<M: TrainModel> TrainModel for TimedModel<M> {
    type Batch = M::Batch;

    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.inner.init_params(out, rng);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        self.inner.weight_units()
    }

    fn forward_loss(&self, params: &[f32], batch: &Self::Batch) -> (f32, Cache) {
        let replay = self.forwards_since_backward.fetch_add(1, Relaxed) > 0;
        let name = if replay { "nn.recomp_fwd" } else { "nn.fwd" };
        let out = self.pass(name, false, || self.inner.forward_loss(params, batch));
        if trace::enabled() {
            self.cache_bytes.fetch_max(out.1.activation_bytes() as u64, Relaxed);
        }
        out
    }

    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32> {
        self.forwards_since_backward.store(0, Relaxed);
        self.pass("nn.bwd", true, || self.inner.backward(params, cache))
    }
}

/// An [`InferModel`] that opens a span around every stage forward.
pub struct TimedInfer<M> {
    inner: M,
}

impl<M: InferModel> InferModel for TimedInfer<M> {
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn output_len(&self) -> usize {
        self.inner.output_len()
    }

    fn prepare_input(&self, x: &Tensor) -> Tensor {
        self.inner.prepare_input(x)
    }

    fn infer(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.inner.infer(params, x)
    }

    fn serve_splits(&self, stages: usize) -> Vec<ServeSplit> {
        self.inner.serve_splits(stages)
    }

    fn infer_split(&self, params: &[f32], split: &ServeSplit, x: &Tensor) -> Tensor {
        let _span = trace::span("nn.infer_split");
        self.inner.infer_split(params, split, x)
    }
}

/// Frames and bytes through one side's transports, always counted.
#[derive(Default)]
pub struct WireCounters {
    tx_frames: AtomicU64,
    tx_bytes: AtomicU64,
    rx_frames: AtomicU64,
    rx_bytes: AtomicU64,
    telemetry_bytes: AtomicU64,
    telemetry_recv_ns: AtomicU64,
}

/// A copy of [`WireCounters`] at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireSnapshot {
    pub tx_frames: u64,
    pub tx_bytes: u64,
    pub rx_frames: u64,
    pub rx_bytes: u64,
    /// Bytes of worker-telemetry frames. They carry timestamps as text,
    /// so their size varies from run to run while all other traffic is
    /// exact.
    pub telemetry_bytes: u64,
    /// Time spent waiting for those frames, while tracing.
    pub telemetry_recv_ns: u64,
}

impl WireSnapshot {
    /// Adds what went over the wire between two snapshots.
    pub fn add_between(&mut self, before: WireSnapshot, after: WireSnapshot) {
        self.tx_frames += after.tx_frames - before.tx_frames;
        self.tx_bytes += after.tx_bytes - before.tx_bytes;
        self.rx_frames += after.rx_frames - before.rx_frames;
        self.rx_bytes += after.rx_bytes - before.rx_bytes;
        self.telemetry_bytes += after.telemetry_bytes - before.telemetry_bytes;
        self.telemetry_recv_ns += after.telemetry_recv_ns - before.telemetry_recv_ns;
    }
}

impl WireCounters {
    fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            tx_frames: self.tx_frames.load(Relaxed),
            tx_bytes: self.tx_bytes.load(Relaxed),
            rx_frames: self.rx_frames.load(Relaxed),
            rx_bytes: self.rx_bytes.load(Relaxed),
            telemetry_bytes: self.telemetry_bytes.load(Relaxed),
            telemetry_recv_ns: self.telemetry_recv_ns.load(Relaxed),
        }
    }
}

/// First payload byte of a worker-telemetry frame, read off an encoded
/// message so the wire format stays the codec's business.
fn telemetry_tag() -> u8 {
    static TAG: OnceLock<u8> = OnceLock::new();
    *TAG.get_or_init(|| encode_message(&Message::Telemetry { stage: 0, jsonl: String::new() })[0])
}

/// A [`Transport`] whose halves count every frame and, while tracing is
/// on, time every send and every wait for a frame. `spans` is off for the
/// open-loop generator, which would otherwise record two spans per
/// request at tens of thousands of requests per second.
pub struct TimedTransport<T> {
    inner: T,
    counters: Arc<WireCounters>,
    spans: bool,
}

struct TimedTx {
    inner: Box<dyn FrameTx>,
    counters: Arc<WireCounters>,
    spans: bool,
}

struct TimedRx {
    inner: Box<dyn FrameRx>,
    counters: Arc<WireCounters>,
    spans: bool,
}

impl<T: Transport + 'static> Transport for TimedTransport<T> {
    fn split(self: Box<Self>) -> Result<(Box<dyn FrameTx>, Box<dyn FrameRx>), CommsError> {
        let (tx, rx) = Box::new(self.inner).split()?;
        Ok((
            Box::new(TimedTx {
                inner: tx,
                counters: Arc::clone(&self.counters),
                spans: self.spans,
            }),
            Box::new(TimedRx { inner: rx, counters: self.counters, spans: self.spans }),
        ))
    }
}

impl FrameTx for TimedTx {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        self.counters.tx_frames.fetch_add(1, Relaxed);
        self.counters.tx_bytes.fetch_add(payload.len() as u64, Relaxed);
        let _span = self.spans.then(|| trace::span("comms.send"));
        self.inner.send_frame(payload)
    }
}

impl FrameRx for TimedRx {
    fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError> {
        let timed = self.spans && trace::enabled();
        let span = timed.then(|| (trace::span("comms.recv"), Instant::now()));
        let payload = self.inner.recv_frame()?;
        let telemetry = payload.first() == Some(&telemetry_tag());
        self.counters.rx_frames.fetch_add(1, Relaxed);
        self.counters.rx_bytes.fetch_add(payload.len() as u64, Relaxed);
        if telemetry {
            self.counters.telemetry_bytes.fetch_add(payload.len() as u64, Relaxed);
        }
        if let Some((_span, t0)) = span {
            if telemetry {
                let ns = t0.elapsed().as_nanos() as u64;
                self.counters.telemetry_recv_ns.fetch_add(ns, Relaxed);
            }
        }
        Ok(payload)
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError> {
        self.inner.set_timeout(timeout)
    }
}

// ---------------------------------------------------------------------------
// Training rig
// ---------------------------------------------------------------------------

/// What one optimizer step reported.
#[derive(Clone, Copy, Debug)]
pub struct StepOut {
    pub loss: f32,
    /// Diverged, non-finite or errored.
    pub failed: bool,
}

/// One cold-constructed trainer with its data, as the harness drives it.
pub trait TrainRig {
    /// Assembles the next minibatch's microbatches (the data layer).
    fn next_batch(&mut self);
    /// Runs one optimizer step on the assembled minibatch.
    fn step(&mut self) -> StepOut;
    /// The latest parameters (gathered from the workers over the wire
    /// when distributed).
    fn params(&mut self) -> Vec<f32>;
    /// The workload's held-out metric on the latest parameters.
    fn eval(&mut self) -> f64;
    /// Forward and backward calls into the model so far.
    fn model_calls(&self) -> u64;
    /// Largest activation cache a forward returned while tracing.
    fn cache_bytes(&self) -> u64;
    /// While tracing: `[allocation calls, allocated bytes, backward
    /// passes]` inside the model.
    fn model_allocs(&self) -> [u64; 3];
    /// Driver-side wire traffic so far (zero in process).
    fn wire(&self) -> WireSnapshot;
}

/// Set-up costs of one round, measured while the rig was constructed.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundSetup {
    pub generate_ms: f64,
    pub trainer_new_ms: f64,
    /// Worker threads, connect, handshake and `InitShard` (TCP only).
    pub handshake_ms: f64,
    pub param_len: usize,
}

/// What tearing a round down returned (empty in process).
#[derive(Clone, Debug, Default)]
pub struct RoundEnd {
    /// Optimizer time of each step summed over the workers, from the
    /// repository's own telemetry shipped back over the wire, in µs.
    pub worker_step_us: Vec<f64>,
    /// Telemetry events in the merged run report.
    pub events: u64,
    /// Steps every worker reported committed.
    pub worker_steps: Vec<u64>,
    pub teardown_ok: bool,
}

trait Source<B> {
    fn next(&mut self) -> (Vec<B>, Vec<f32>);
}

fn chunks_and_weights(indices: &[usize], n_micro: usize) -> (Vec<Vec<usize>>, Vec<f32>) {
    let chunks = split_microbatches(indices, n_micro);
    let weights = chunks.iter().map(|c| c.len() as f32 / indices.len() as f32).collect();
    (chunks, weights)
}

struct ImageSource {
    ds: ImageDataset,
    order: MinibatchIter,
    n_micro: usize,
}

impl ImageSource {
    fn new(ds: ImageDataset, spec: &TrainSpec) -> Self {
        let order = MinibatchIter::new(ds.train_len(), spec.minibatch, INIT_SEED);
        ImageSource { ds, order, n_micro: spec.n_micro }
    }
}

impl Source<ImageBatch> for ImageSource {
    fn next(&mut self) -> (Vec<ImageBatch>, Vec<f32>) {
        let (chunks, weights) = chunks_and_weights(&self.order.next_batch(), self.n_micro);
        let micro = chunks
            .iter()
            .map(|c| {
                let (x, y) = self.ds.train_batch(c);
                ImageBatch { x, y }
            })
            .collect();
        (micro, weights)
    }
}

struct SeqSource {
    ds: TranslationDataset,
    order: MinibatchIter,
    n_micro: usize,
}

impl Source<SeqBatch> for SeqSource {
    fn next(&mut self) -> (Vec<SeqBatch>, Vec<f32>) {
        let (chunks, weights) = chunks_and_weights(&self.order.next_batch(), self.n_micro);
        (chunks.iter().map(|c| self.ds.batch(c)).collect(), weights)
    }
}

trait Stepper<B> {
    fn step(&mut self, micro: &[B], weights: &[f32]) -> StepOut;
    fn latest(&mut self) -> Vec<f32>;
}

impl<M: TrainModel> Stepper<M::Batch> for PipelineTrainer<'_, M> {
    fn step(&mut self, micro: &[M::Batch], weights: &[f32]) -> StepOut {
        let s = self.train_minibatch(micro, weights);
        StepOut { loss: s.loss, failed: s.diverged || !s.loss.is_finite() }
    }

    fn latest(&mut self) -> Vec<f32> {
        self.params().to_vec()
    }
}

impl<M: TrainModel> Stepper<M::Batch> for DistributedTrainer<'_, M> {
    fn step(&mut self, micro: &[M::Batch], weights: &[f32]) -> StepOut {
        match self.train_minibatch(micro, weights) {
            Ok(s) => StepOut { loss: s.loss, failed: s.diverged || !s.loss.is_finite() },
            Err(_) => StepOut { loss: f32::NAN, failed: true },
        }
    }

    fn latest(&mut self) -> Vec<f32> {
        self.gather_params().unwrap_or_default()
    }
}

struct Rig<'a, M: TrainModel, S, T> {
    model: &'a TimedModel<M>,
    source: S,
    trainer: T,
    eval: &'a dyn Fn(&[f32]) -> f64,
    wire: Option<Arc<WireCounters>>,
    pending: Option<(Vec<M::Batch>, Vec<f32>)>,
}

impl<M, S, T> TrainRig for Rig<'_, M, S, T>
where
    M: TrainModel,
    S: Source<M::Batch>,
    T: Stepper<M::Batch>,
{
    fn next_batch(&mut self) {
        self.pending = Some(self.source.next());
    }

    fn step(&mut self) -> StepOut {
        let (micro, weights) = self.pending.take().expect("next_batch comes before step");
        self.trainer.step(&micro, &weights)
    }

    fn params(&mut self) -> Vec<f32> {
        self.trainer.latest()
    }

    fn eval(&mut self) -> f64 {
        (self.eval)(&self.trainer.latest())
    }

    fn model_calls(&self) -> u64 {
        self.model.calls.load(Relaxed)
    }

    fn cache_bytes(&self) -> u64 {
        self.model.cache_bytes.load(Relaxed)
    }

    fn model_allocs(&self) -> [u64; 3] {
        [0, 1, 2].map(|i| self.model.traced[i].load(Relaxed))
    }

    fn wire(&self) -> WireSnapshot {
        self.wire.as_ref().map(|w| w.snapshot()).unwrap_or_default()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

type Body<'b> = &'b mut dyn FnMut(&mut dyn TrainRig, &RoundSetup);

/// Builds an in-process `PipelineTrainer` on `model` from cold and hands
/// the rig to `body`.
fn drive_in_process<M: TrainModel, S: Source<M::Batch>>(
    model: M,
    cfg: TrainConfig,
    source: S,
    eval: impl Fn(&M, &[f32]) -> f64,
    mut setup: RoundSetup,
    body: Body<'_>,
) {
    let model = TimedModel::new(model);
    let eval = |p: &[f32]| eval(&model.inner, p);
    let t = Instant::now();
    let trainer = PipelineTrainer::new(&model, cfg, INIT_SEED);
    setup.trainer_new_ms = ms_since(t);
    setup.param_len = model.param_len();
    let mut rig = Rig { model: &model, source, trainer, eval: &eval, wire: None, pending: None };
    body(&mut rig, &setup);
}

/// One cold in-process round of a training workload. `widemlp_tcp` gets
/// its in-process twin here: same model, data and configuration, no wire.
fn inproc_round(workload: &str, seed: u64, body: Body<'_>) {
    let spec = train_spec(workload).expect("a training workload");
    let t = Instant::now();
    if workload == TRANSFORMER {
        let ds = transformer_data(seed);
        let setup = RoundSetup { generate_ms: ms_since(t), ..RoundSetup::default() };
        let (model, test) = (transformer_model(&ds), ds.test_batch());
        let order = MinibatchIter::new(ds.train_len(), spec.minibatch, INIT_SEED);
        let source = SeqSource { ds, order, n_micro: spec.n_micro };
        let eval = |m: &Transformer, p: &[f32]| f64::from(m.forward_loss(p, &test).0);
        drive_in_process(model, transformer_cfg(&spec), source, eval, setup, body);
        return;
    }
    let ds = if workload == RESNET { resnet_data(seed) } else { widemlp_data(seed) };
    let setup = RoundSetup { generate_ms: ms_since(t), ..RoundSetup::default() };
    let (x, y) = ds.test_batch();
    let test = ImageBatch { x, y };
    let source = ImageSource::new(ds, &spec);
    if workload == RESNET {
        let eval = |m: &CifarResNet, p: &[f32]| f64::from(m.accuracy(p, &test));
        drive_in_process(resnet_model(), resnet_cfg(&spec), source, eval, setup, body);
    } else {
        let eval = |m: &Mlp, p: &[f32]| f64::from(m.accuracy(p, &test));
        drive_in_process(Mlp::new(&WIDEMLP_WIDTHS), widemlp_cfg(&spec), source, eval, setup, body);
    }
}

type WorkerThread = JoinHandle<Result<StageWorkerReport, CommsError>>;

/// One stage worker per thread, each listening on its own loopback port
/// with the live store and the journal on, as `orchestrator worker` runs
/// them.
fn spawn_tcp_workers(
    stages: usize,
    journal: &std::path::Path,
) -> (Vec<SocketAddr>, Vec<WorkerThread>) {
    let mut addrs = Vec::with_capacity(stages);
    let mut threads = Vec::with_capacity(stages);
    for s in 0..stages {
        let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
        addrs.push(listener.local_addr().expect("a bound listener has an address"));
        let journal_dir = journal.join(format!("worker-{s}"));
        threads.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept()?;
            let (tx, rx) = channel(Box::new(TcpTransport::new(stream)?))?;
            let opts = WorkerOptions { stats_addr: None, journal_dir: Some(journal_dir) };
            run_stage_worker_opts(tx, rx, opts)
        }));
    }
    (addrs, threads)
}

/// `widemlp_tcp`: the in-process twin's model, data and configuration,
/// driven through `DistributedTrainer` over `TcpTransport` on 127.0.0.1.
fn tcp_round(seed: u64, body: Body<'_>) -> RoundEnd {
    let spec = train_spec(WIDEMLP).expect("a training workload");
    let mut setup = RoundSetup::default();
    let t = Instant::now();
    let ds = widemlp_data(seed);
    setup.generate_ms = ms_since(t);
    let (x, y) = ds.test_batch();
    let test = ImageBatch { x, y };
    let model = TimedModel::new(Mlp::new(&WIDEMLP_WIDTHS));
    let eval = |p: &[f32]| f64::from(model.inner.accuracy(p, &test));
    setup.param_len = TrainModel::param_len(&model);

    let journal = out_dir().join(format!("journal-{}", std::process::id()));
    let t = Instant::now();
    let (addrs, workers) = spawn_tcp_workers(spec.stages, &journal);
    let counters = Arc::new(WireCounters::default());
    let transports: Vec<Box<dyn Transport>> = addrs
        .iter()
        .map(|addr| {
            let inner = TcpTransport::connect(&addr.to_string()).expect("worker accepts");
            Box::new(TimedTransport { inner, counters: Arc::clone(&counters), spans: true })
                as Box<dyn Transport>
        })
        .collect();
    let dcfg = dist_config(widemlp_cfg(&spec), SparseMode::Dense, Some(Duration::from_secs(30)))
        .expect("a pipeline mode has a distributed counterpart");
    let trainer = DistributedTrainer::connect(&model, dcfg, INIT_SEED, transports)
        .expect("handshake with local workers");
    setup.handshake_ms = ms_since(t);
    setup.trainer_new_ms = setup.handshake_ms;

    // The driver's live plane, as `orchestrator train --journal` wires it.
    let store = trainer.live_store();
    store.attach_alerts(Arc::new(AlertEngine::new(default_rules())));
    let mut writer = JournalWriter::create(
        journal.join("orchestrator"),
        "orchestrator",
        spec.stages,
        JournalConfig::default(),
    )
    .expect("the journal directory is writable");
    let ticker = StoreTicker::spawn_with_hook(store, Duration::from_millis(250), move |sample| {
        let _ = writer.append(sample);
    });

    let source = ImageSource::new(ds, &spec);
    let mut rig =
        Rig { model: &model, source, trainer, eval: &eval, wire: Some(counters), pending: None };
    body(&mut rig, &setup);

    drop(ticker);
    let report = rig.trainer.shutdown();
    let mut joined = true;
    for w in workers {
        joined &= matches!(w.join(), Ok(Ok(_)));
    }
    let _ = std::fs::remove_dir_all(&journal);
    match report {
        Ok(r) => RoundEnd {
            worker_step_us: {
                // A worker stamps its optimizer span with the step index;
                // a step's optimizer time is the sum over the shards.
                let mut per_step = std::collections::BTreeMap::<u32, f64>::new();
                for e in r.events.iter().filter(|e| e.kind == SpanKind::Step) {
                    if (e.track as usize) < spec.stages {
                        *per_step.entry(e.microbatch).or_default() += e.dur_us as f64;
                    }
                }
                per_step.into_values().collect()
            },
            events: r.events.len() as u64,
            worker_steps: r.worker_steps,
            teardown_ok: joined,
        },
        Err(_) => RoundEnd::default(),
    }
}

/// One cold round of a training workload: construct everything, run
/// `body` on the rig, tear everything down.
pub fn train_round(workload: &str, seed: u64, body: Body<'_>) -> RoundEnd {
    if workload == WIDEMLP {
        tcp_round(seed, body)
    } else {
        inproc_round(workload, seed, body);
        RoundEnd { teardown_ok: true, ..RoundEnd::default() }
    }
}

/// Parameters of an in-process `PipelineTrainer` after `steps` steps on
/// the workload's model, data and configuration: the reference the
/// distributed run must equal bit for bit.
pub fn reference_params(workload: &str, seed: u64, steps: usize) -> Vec<f32> {
    let mut out = Vec::new();
    inproc_round(workload, seed, &mut |rig, _| {
        for _ in 0..steps {
            rig.next_batch();
            rig.step();
        }
        out = rig.params();
    });
    out
}

/// Floating-point operations and kernel calls of one training step,
/// counted by the tensor crate's own kernel instruments on the second
/// step of a fresh in-process trainer.
pub fn kernel_counts_per_step(workload: &str, seed: u64) -> (u64, u64) {
    let registry = MetricsRegistry::new();
    let metrics = install_kernel_metrics(&registry);
    let calls = || {
        use pipemare_tensor::KernelKind::*;
        [Gemm, GemmNt, GemmTn, Bmm, Im2col].iter().map(|&k| metrics.calls(k).get()).sum::<u64>()
    };
    let mut out = (0, 0);
    inproc_round(workload, seed, &mut |rig, _| {
        rig.next_batch();
        rig.step();
        let before = (metrics.flops.get(), calls());
        rig.next_batch();
        rig.step();
        out = (metrics.flops.get() - before.0, calls() - before.1);
    });
    uninstall_kernel_metrics();
    out
}

// ---------------------------------------------------------------------------
// Serving rig
// ---------------------------------------------------------------------------

pub const SERVE_COLS: usize = 64;
const SERVE_WIDTHS: [usize; 4] = [SERVE_COLS, 512, 512, 10];
const SERVE_STAGES: usize = 2;

fn serve_config() -> ServeConfig {
    ServeConfig {
        stages: SERVE_STAGES,
        max_batch_rows: 32,
        deadline: Duration::from_millis(1),
        queue_cap: 256,
        refresh_every: None,
        conn_recv_timeout: Some(Duration::from_millis(100)),
    }
}

fn serve_model_and_params() -> (Arc<TimedInfer<Mlp>>, Vec<f32>) {
    let model = Mlp::new(&SERVE_WIDTHS);
    let mut params = vec![0.0; model.param_len()];
    TrainModel::init_params(&model, &mut params, &mut StdRng::seed_from_u64(INIT_SEED));
    (Arc::new(TimedInfer { inner: model }), params)
}

/// The server's own running counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounts {
    pub accepted: u64,
    pub shed: u64,
    pub rejected: u64,
    pub served: u64,
    pub batches: u64,
    pub batch_rows: u64,
}

/// What the server's always-on flight recorder held at shutdown.
#[derive(Clone, Debug, Default)]
pub struct ServeTelemetry {
    pub flight_events: u64,
    pub queue_wait_us: Vec<f64>,
}

/// A reply to one open-loop request.
pub enum Reply {
    Result {
        id: u64,
        data: Vec<f32>,
    },
    /// Refused by admission control because the queue was full.
    Shed {
        id: u64,
    },
    /// Refused for any other reason.
    Rejected {
        id: u64,
    },
}

/// The sending half of an open-loop connection.
pub struct RequestTx(Sender);

impl RequestTx {
    pub fn send(&mut self, id: u64, row: &[f32]) -> bool {
        self.0
            .send(&Message::Infer {
                id,
                rows: 1,
                cols: row.len() as u32,
                trace: id + 1,
                data: TensorPayload::Dense(row.to_vec()),
            })
            .is_ok()
    }
}

/// The receiving half of an open-loop connection.
pub struct ReplyRx(Receiver);

impl ReplyRx {
    /// The next reply, or `None` when none arrived within the timeout
    /// set at connect or the connection broke.
    pub fn recv(&mut self) -> Option<Reply> {
        match self.0.recv().ok()? {
            Message::InferResult { id, data, .. } => {
                Some(Reply::Result { id, data: data.into_dense() })
            }
            Message::InferReject { id, reason: RejectReason::QueueFull, .. } => {
                Some(Reply::Shed { id })
            }
            Message::InferReject { id, .. } => Some(Reply::Rejected { id }),
            _ => None,
        }
    }
}

/// A blocking client for sequential requests.
pub struct ClosedClient(InferClient);

impl ClosedClient {
    pub fn infer(&mut self, row: &[f32]) -> Option<Vec<f32>> {
        let x = Tensor::from_vec(row.to_vec(), &[1, row.len()]);
        self.0.infer(&x).ok().map(Tensor::into_vec)
    }
}

/// A running `Server` over TCP with the always-on flight recorder, and
/// the model it serves for reference outputs.
pub struct ServeRig {
    server: Server,
    model: Arc<TimedInfer<Mlp>>,
    params: Vec<f32>,
    addr: SocketAddr,
    flight: Arc<FlightRecorder>,
    wire: Arc<WireCounters>,
    /// `Server::start` plus `listen_tcp`.
    pub start_ms: f64,
}

impl ServeRig {
    pub fn start() -> ServeRig {
        let t = Instant::now();
        let (model, params) = serve_model_and_params();
        let cfg = serve_config();
        let flight = Arc::new(FlightRecorder::for_pipeline(cfg.stages));
        let mut server = Server::start(
            Arc::clone(&model),
            params.clone(),
            cfg,
            None,
            Arc::clone(&flight) as DynRecorder,
        )
        .expect("the serving configuration is valid");
        let addr = server.listen_tcp("127.0.0.1:0").expect("a loopback port is free");
        ServeRig {
            server,
            model,
            params,
            addr,
            flight,
            wire: Arc::new(WireCounters::default()),
            start_ms: ms_since(t),
        }
    }

    fn connect(&self, spans: bool) -> Box<dyn Transport> {
        let inner = TcpTransport::connect(&self.addr.to_string()).expect("the server accepts");
        Box::new(TimedTransport { inner, counters: Arc::clone(&self.wire), spans })
    }

    pub fn closed_client(&self) -> ClosedClient {
        let mut client = InferClient::connect(self.connect(true)).expect("a connected transport");
        client.set_timeout(Some(Duration::from_secs(10))).expect("a TCP stream takes a timeout");
        ClosedClient(client)
    }

    /// An open-loop connection whose receiver gives up after `timeout`
    /// without a frame.
    pub fn open_conn(&self, timeout: Duration) -> (RequestTx, ReplyRx) {
        let (tx, mut rx) = channel(self.connect(false)).expect("a connected transport");
        rx.set_timeout(Some(timeout)).expect("a TCP stream takes a timeout");
        (RequestTx(tx), ReplyRx(rx))
    }

    /// `InferModel::infer` on one row: what the server must reply bit
    /// for bit.
    pub fn reference(&self, row: &[f32]) -> Vec<f32> {
        let x = self.model.prepare_input(&Tensor::from_vec(row.to_vec(), &[1, row.len()]));
        self.model.infer(&self.params, &x).into_vec()
    }

    /// The server's counters now. It bumps `served` just after it writes
    /// a reply, so a client that has read the reply can be one ahead.
    pub fn counts(&self) -> ServeCounts {
        counts_of(&self.server.stats())
    }

    /// Client-side wire traffic of every connection so far.
    pub fn wire(&self) -> WireSnapshot {
        self.wire.snapshot()
    }

    /// Drains and joins the server; its final counters are settled.
    pub fn shutdown(self) -> (ServeCounts, ServeTelemetry) {
        let counts = counts_of(&self.server.shutdown());
        let telemetry = ServeTelemetry {
            flight_events: self.flight.recorded(),
            queue_wait_us: self
                .flight
                .snapshot_events()
                .iter()
                .filter(|e| e.kind == SpanKind::QueueWaitFwd)
                .map(|e| e.dur_us as f64)
                .collect(),
        };
        (counts, telemetry)
    }
}

fn counts_of(s: &ServeStats) -> ServeCounts {
    ServeCounts {
        accepted: s.accepted,
        shed: s.shed,
        rejected: s.rejected_invalid + s.rejected_draining + s.rejected_backend,
        served: s.served_requests,
        batches: s.batches,
        batch_rows: s.batch_rows.iter().map(|&r| u64::from(r)).sum(),
    }
}

// ---------------------------------------------------------------------------
// Isolated micro-timings, on the workload's own shapes
// ---------------------------------------------------------------------------

/// Quiet decile, in µs, of `reps` timed calls of `run` on what `setup`
/// prepared outside the timed region, after three untimed calls.
fn quiet_us_with<S>(reps: usize, mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    for _ in 0..3 {
        run(setup());
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let s = setup();
            let t = Instant::now();
            run(s);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    quiet_decile(&samples, Better::Lower)
}

fn quiet_us(reps: usize, mut run: impl FnMut()) -> f64 {
    quiet_us_with(reps, || (), |()| run())
}

type Metrics = Vec<(String, f64)>;

fn put(out: &mut Metrics, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

/// `C = A·B` at `(m, k, n)` through the production kernel: GFLOP/s at the
/// quiet decile.
fn gemm_gflops(m: usize, k: usize, n: usize, rng: &mut StdRng) -> f64 {
    let (a, b) = (Tensor::randn(&[m, k], rng), Tensor::randn(&[k, n], rng));
    let mut c = vec![0.0f32; m * n];
    let us = quiet_us(40, || {
        kernels::gemm(a.data(), b.data(), &mut c, m, k, n);
        std::hint::black_box(&mut c);
    });
    2.0 * (m * k * n) as f64 / (us * 1e3)
}

/// Forward and backward of one standalone layer, µs at the quiet decile.
fn layer_us(layer: &dyn Layer, x: &Tensor, rng: &mut StdRng) -> (f64, f64) {
    let mut params = vec![0.0f32; layer.param_len()];
    layer.init_params(&mut params, rng);
    let fwd = quiet_us(30, || {
        std::hint::black_box(layer.forward(&params, x));
    });
    let (y, cache) = layer.forward(&params, x);
    let dy = Tensor::randn(y.shape(), rng);
    let bwd = quiet_us(30, || {
        std::hint::black_box(layer.backward(&params, &cache, &dy));
    });
    (fwd, bwd)
}

fn put_layer(out: &mut Metrics, kind: &str, layer: &dyn Layer, x: &Tensor, rng: &mut StdRng) {
    let (fwd, bwd) = layer_us(layer, x, rng);
    put(out, &format!("nn.layer_fwd_us.{kind}"), fwd);
    put(out, &format!("nn.layer_bwd_us.{kind}"), bwd);
}

/// The tensor layer on the workload's dominant product `(m, k, n)`.
fn tensor_micro(out: &mut Metrics, m: usize, k: usize, n: usize, rng: &mut StdRng) {
    let (a, b) = (Tensor::randn(&[m, k], rng), Tensor::randn(&[k, n], rng));
    let mut c = vec![0.0f32; m * n];
    let mut timed = |threads: usize| {
        let pool = ThreadPool::new(threads);
        pool::with_pool(&pool, || {
            quiet_us(30, || {
                kernels::gemm(a.data(), b.data(), &mut c, m, k, n);
                std::hint::black_box(&mut c);
            })
        })
    };
    let (one, two) = (timed(1), timed(2));
    put(out, "tensor.pool_speedup_2t", one / two);
    let tier = match simd_level() {
        SimdLevel::Scalar => 0.0,
        SimdLevel::Avx2 => 1.0,
        SimdLevel::Avx512 => 2.0,
    };
    put(out, "tensor.simd_tier", tier);
    std::hint::black_box(a.matmul(&b));
    let before = alloc::totals().0;
    std::hint::black_box(a.matmul(&b));
    put(out, "tensor.allocs_per_gemm", (alloc::totals().0 - before) as f64);
}

/// Optimizer, weight-history and cost-model numbers of a training
/// workload, on a parameter vector of its own length and partition.
fn train_state_micro(out: &mut Metrics, workload: &str, rng: &mut StdRng) {
    let spec = train_spec(workload).expect("a training workload");
    let (units, total, cfg): (Vec<WeightUnit>, usize, TrainConfig) = match workload {
        RESNET => {
            let m = resnet_model();
            (m.weight_units(), m.param_len(), resnet_cfg(&spec))
        }
        TRANSFORMER => {
            let m = transformer_model(&transformer_data(0));
            (m.weight_units(), m.param_len(), transformer_cfg(&spec))
        }
        _ => {
            let m = Mlp::new(&WIDEMLP_WIDTHS);
            (TrainModel::weight_units(&m), m.param_len(), widemlp_cfg(&spec))
        }
    };
    let unit_ranges: Vec<(usize, usize)> = units.iter().map(|u| (u.offset, u.len)).collect();
    let partition = StagePartition::from_units(&unit_ranges, total, spec.stages);
    let params = Tensor::randn(&[total], rng).into_vec();
    let grad = Tensor::randn(&[total], rng).into_vec();

    let mut opt = Optimizer::new(cfg.optimizer, total);
    let mut w = params.clone();
    let step_us = quiet_us(30, || {
        opt.begin_step();
        for &(lo, hi) in partition.ranges() {
            opt.step_range(&mut w, &grad, lo, hi, 1e-3);
        }
    });
    put(out, "optim.step_us", step_us);
    put(out, "optim.ns_per_param", step_us * 1e3 / total as f64);
    let (m, v, _) = opt.state();
    put(out, "optim.state_bytes", ((m.len() + v.len()) * 4) as f64);
    if let Some(clip) = cfg.grad_clip {
        let clip_us = quiet_us_with(
            30,
            || grad.clone(),
            |mut g| {
                std::hint::black_box(clip_grad_norm(&mut g, clip));
            },
        );
        put(out, "optim.clip_us", clip_us);
    }

    let clock = PipelineClock::new(spec.stages, spec.n_micro);
    let depth = clock.history_depth() + 1;
    let mut history = WeightHistory::with_precision(depth, params.clone(), StoragePrecision::F32);
    for v in 1..depth {
        history.push(v, params.clone());
    }
    let mut buf = vec![0.0f32; total];
    let assemble_us = quiet_us(30, || {
        for (s, &(lo, hi)) in partition.ranges().iter().enumerate() {
            history.copy_range(depth - 1 - s % depth, lo, hi, &mut buf[lo..hi]);
        }
        std::hint::black_box(&mut buf);
    });
    put(out, "pipeline.assemble_us", assemble_us);
    let per_micro = if spec.recompute { 3 } else { 2 };
    put(out, "pipeline.assembles_per_step", (per_micro * spec.n_micro) as f64);
    let mut version = depth;
    let push_us = quiet_us_with(
        30,
        || params.clone(),
        |p| {
            history.push(version, p);
            version += 1;
        },
    );
    put(out, "pipeline.push_us", push_us);
    put(out, "pipeline.history_bytes", history.storage_bytes() as f64);
    let util = normalized_throughput(Method::PipeMare, spec.stages, spec.n_micro);
    put(out, "pipeline.util_model", util);
    put(out, "pipeline.bubble_share_model", 1.0 - util);
}

/// Codec cost of one message of the workload's size, and a small-frame
/// round trip over both transports.
fn comms_micro(out: &mut Metrics, workload: &str, rng: &mut StdRng) {
    let time_codec = |msg: Message| {
        let encode = quiet_us(30, || {
            std::hint::black_box(encode_message(&msg));
        });
        let bytes = encode_message(&msg);
        let decode = quiet_us(30, || {
            std::hint::black_box(decode_message(&bytes).expect("an encoded message decodes"));
        });
        (encode, decode)
    };
    if workload == WIDEMLP {
        // The largest shard: the first layer's weights and biases.
        let shard =
            Tensor::randn(&[WIDEMLP_WIDTHS[0] * WIDEMLP_WIDTHS[1] + WIDEMLP_WIDTHS[1]], rng);
        let (enc, dec) = time_codec(Message::Shard {
            step: 1,
            micro: 0,
            pass: pipemare_comms::PassKind::Fwd,
            stage: 0,
            trace: 1,
            data: TensorPayload::from_dense(shard.data(), SparseMode::Dense),
        });
        put(out, "comms.encode_us_shard", enc);
        put(out, "comms.decode_us_shard", dec);
    } else {
        let row = Tensor::randn(&[SERVE_COLS], rng).into_vec();
        let (enc, dec) = time_codec(Message::Infer {
            id: 1,
            rows: 1,
            cols: SERVE_COLS as u32,
            trace: 2,
            data: TensorPayload::Dense(row),
        });
        put(out, "comms.encode_us_infer", enc);
        put(out, "comms.decode_us_infer", dec);
    }

    let echo = |mut tx: Sender, mut rx: Receiver| {
        std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                if matches!(msg, Message::Shutdown) || tx.send(&msg).is_err() {
                    break;
                }
            }
        })
    };
    let round_trips = |mut tx: Sender, mut rx: Receiver| {
        let us = quiet_us(200, || {
            tx.send(&Message::Flush { id: 7 }).expect("the echo peer is up");
            std::hint::black_box(rx.recv().expect("the echo peer answers"));
        });
        let _ = tx.send(&Message::Shutdown);
        us
    };
    let (a, b) = loopback_pair();
    let (b_tx, b_rx) = channel(Box::new(b)).expect("a loopback pair splits");
    let peer = echo(b_tx, b_rx);
    let (a_tx, a_rx) = channel(Box::new(a)).expect("a loopback pair splits");
    put(out, "comms.roundtrip_us_loopback", round_trips(a_tx, a_rx));
    let _ = peer.join();

    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let addr = listener.local_addr().expect("a bound listener has an address");
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the client connects");
        let transport = TcpTransport::new(stream).expect("a connected stream");
        let (tx, rx) = channel(Box::new(transport)).expect("a TCP stream splits");
        echo(tx, rx).join()
    });
    let transport = TcpTransport::connect(&addr.to_string()).expect("the echo peer listens");
    let (tx, rx) = channel(Box::new(transport)).expect("a TCP stream splits");
    put(out, "comms.roundtrip_us_tcp", round_trips(tx, rx));
    let _ = peer.join();
}

/// The observability plane's own cost: one flight-recorder event, one
/// live-store sample, one journal append.
fn telemetry_micro(out: &mut Metrics, stages: usize) {
    let flight = Arc::new(FlightRecorder::for_pipeline(stages));
    const EVENTS: usize = 20_000;
    let batch_us = quiet_us(20, || {
        for i in 0..EVENTS {
            let t = flight.now_us();
            flight.record_span(SpanKind::Forward, 0, 0, i as u32, t, t + 1);
        }
    });
    put(out, "telemetry.flight_ns_per_event", batch_us * 1e3 / EVENTS as f64);

    let registry = Arc::new(MetricsRegistry::new());
    registry.counter("bench.steps").add(3);
    let store = LiveStore::new("pmbench", stages)
        .with_registry(registry)
        .with_events(Arc::clone(&flight) as Arc<dyn EventSource + Send + Sync>);
    let sample_us = quiet_us(20, || {
        store.sample();
    });
    put(out, "telemetry.sample_cost_us", sample_us);

    let dir = out_dir().join(format!("journal-micro-{}", std::process::id()));
    if let Ok(mut writer) = JournalWriter::create(&dir, "pmbench", stages, JournalConfig::default())
    {
        // A fresh sample each time: the writer skips a sequence number it
        // has already stored.
        let appends: Vec<f64> = (0..400)
            .map(|_| {
                store.sample();
                let sample = store.latest().expect("the store was just sampled");
                let t = Instant::now();
                let _ = writer.append(&sample);
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        put(out, "telemetry.journal_append_us_p50", quantile(&appends, 0.5));
        put(out, "telemetry.journal_append_us_p99", quantile(&appends, 0.99));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every isolated per-layer number of `workload`, by metric name.
pub fn micro(workload: &str, seed: u64) -> Vec<(String, f64)> {
    let mut out = Metrics::new();
    let rng = &mut StdRng::seed_from_u64(seed);
    match workload {
        RESNET => {
            // One microbatch: 10 images of 3×16×16; the first group's
            // 3×3 convolution unfolds to a (2560×108)·(108×12) product.
            let x = Tensor::randn(&[10, 12, 16, 16], rng);
            put_layer(&mut out, "conv", &Conv2d::new_no_bias(12, 12, 3, 1, 1), &x, rng);
            put_layer(&mut out, "batchnorm", &BatchNorm2d::new(12), &x, rng);
            put_layer(
                &mut out,
                "linear",
                &Linear::new(48, 10),
                &Tensor::randn(&[10, 48], rng),
                rng,
            );
            put(&mut out, "tensor.gemm_gflops_conv", gemm_gflops(2560, 108, 12, rng));
            tensor_micro(&mut out, 2560, 108, 12, rng);
        }
        TRANSFORMER => {
            // One microbatch: 3 sentences of 6 tokens at width 32.
            let x = Tensor::randn(&[3, 6, 32], rng);
            let attn = MultiHeadAttention::new(32, 4);
            let mut params = vec![0.0f32; attn.param_len()];
            attn.init_params(&mut params, rng);
            let fwd = quiet_us(30, || {
                std::hint::black_box(attn.forward(&params, &x, &x, &AttnMask::None));
            });
            let (y, cache) = attn.forward(&params, &x, &x, &AttnMask::None);
            let dy = Tensor::randn(y.shape(), rng);
            let bwd = quiet_us(30, || {
                std::hint::black_box(attn.backward(&params, &cache, &dy));
            });
            put(&mut out, "nn.layer_fwd_us.attention", fwd);
            put(&mut out, "nn.layer_bwd_us.attention", bwd);
            put_layer(&mut out, "layernorm", &LayerNorm::new(32), &x, rng);
            put_layer(
                &mut out,
                "linear",
                &Linear::new(32, 64),
                &Tensor::randn(&[18, 32], rng),
                rng,
            );
            let ids = Tensor::from_vec((0..18).map(|i| (3 + i % 8) as f32).collect(), &[3, 6]);
            put_layer(&mut out, "embedding", &Embedding::new_scaled(11, 32), &ids, rng);
            // Attention scores: 12 (batch × heads) products of (6×8)·(8×6).
            let (q, k) = (Tensor::randn(&[12, 6, 8], rng), Tensor::randn(&[12, 6, 8], rng));
            let us = quiet_us(40, || {
                std::hint::black_box(q.bmm_nt(&k));
            });
            put(&mut out, "tensor.gemm_gflops_attn", 2.0 * (12 * 6 * 6 * 8) as f64 / (us * 1e3));
            tensor_micro(&mut out, 18, 32, 64, rng);
        }
        WIDEMLP => {
            // One microbatch: 16 rows into the 640→1024 first layer.
            let x = Tensor::randn(&[16, 640], rng);
            put_layer(&mut out, "linear", &Linear::new(640, 1024), &x, rng);
            put(&mut out, "tensor.gemm_gflops_b16", gemm_gflops(16, 640, 1024, rng));
            tensor_micro(&mut out, 16, 640, 1024, rng);
        }
        _ => {
            let (model, params) = serve_model_and_params();
            let splits = model.serve_splits(SERVE_STAGES);
            for (rows, name) in [(1, "nn.infer_split_us_b1"), (16, "nn.infer_split_us_b16")] {
                let x = Tensor::randn(&[rows, SERVE_COLS], rng);
                let us = quiet_us(50, || {
                    std::hint::black_box(model.inner.infer_split(&params, &splits[0], &x));
                });
                put(&mut out, name, us);
            }
            put_layer(
                &mut out,
                "linear",
                &Linear::new(128, 128),
                &Tensor::randn(&[16, 128], rng),
                rng,
            );
            put(&mut out, "tensor.gemv_gflops_b1", gemm_gflops(1, 128, 128, rng));
            put(&mut out, "tensor.gemm_gflops_b16", gemm_gflops(16, 128, 128, rng));
            tensor_micro(&mut out, 16, 128, 128, rng);

            let flight = Arc::new(FlightRecorder::for_pipeline(SERVE_STAGES));
            let engine =
                StagedEngine::new(Arc::clone(&model), splits, params, flight as DynRecorder);
            let done = engine.completions();
            let mut id = 0;
            let us = quiet_us_with(
                50,
                || Tensor::randn(&[16, SERVE_COLS], rng),
                |x| {
                    engine.submit(id, x);
                    id += 1;
                    std::hint::black_box(done.recv().expect("the engine completes a batch"));
                },
            );
            engine.shutdown();
            put(&mut out, "serve.engine_batch_us_b16", us);
        }
    }
    if workload == SERVE {
        comms_micro(&mut out, workload, rng);
        telemetry_micro(&mut out, SERVE_STAGES);
    } else {
        train_state_micro(&mut out, workload, rng);
        if workload == WIDEMLP {
            comms_micro(&mut out, workload, rng);
            telemetry_micro(&mut out, train_spec(workload).expect("a training workload").stages);
        }
    }
    out
}
