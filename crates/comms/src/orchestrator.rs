//! The orchestrator: drives N stage workers over any transport.
//!
//! Topology is a star — the orchestrator holds one link per worker.
//! Two drivers live here:
//!
//! * [`DistributedTrainer`] — the distributed counterpart of
//!   `pipemare_core::PipelineTrainer`. Model compute (forward/backward)
//!   stays on the driver, exactly like the paper's App. C.4 simulation;
//!   workers own their stage's weight shard, serve delayed/T2-corrected
//!   versions of it, and run the optimizer. A two-phase stage/commit
//!   step keeps all shards atomic under divergence. With pinned seeds
//!   the final weights are bit-identical to the in-process trainer.
//! * [`run_token_pipeline`] — the distributed counterpart of
//!   `run_threaded_pipeline_traced`: microbatch tokens hop between
//!   workers through the hub, reproducing the latency pipeline (and its
//!   telemetry span multiset) across real transports.
//!
//! # Version-aware shard traffic
//!
//! PipeMare's point (§2.2, Table 1) is that an asynchronous stage reads
//! whatever weight version is in memory, so a step touches few distinct
//! versions. The trainer keys its traffic on that. It keeps one
//! parameter buffer per pass kind (forward, backward, recompute) for
//! the whole run and remembers, per buffer and stage, the
//! [`ContentTag`] of what the buffer holds. Every read of a step is
//! resolved up front with the same [`plan`] the worker serves fetches
//! with; a read whose tag its buffer already holds sends nothing, one
//! whose tag another buffer holds is a local copy, and only a tag held
//! nowhere becomes a `FetchShard`. In steady state that is one fetch
//! per stage and step for GPipe and PipeDream and two for PipeMare
//! (one new forward version, one T2-corrected backward read), however
//! many microbatches the step has.
//!
//! # Scatter/gather, and why it cannot deadlock
//!
//! All of a step's `FetchShard`s go out before the first forward, so
//! workers encode and write their replies while the driver computes;
//! each reply is drained, straight into its buffer, at the read that
//! needs it and no earlier (draining ahead would overwrite values an
//! earlier read still uses). Gradient shards, commits and telemetry
//! flushes are likewise sent to every stage before the first ack is
//! read. A link is still FIFO both ways — the worker answers in request
//! order — it is just no longer one-at-a-time. That is deadlock-free
//! because of what each side may have in flight:
//!
//! * While replies are outstanding on a link the driver writes only
//!   tiny frames to it (`FetchShard` 14 B, `Commit` 10 B, `Flush` 9 B),
//!   at most [`FETCH_WINDOW`] of them unanswered, under 2 KiB — less
//!   than any socket buffer, so the driver's writes never wait on the
//!   worker reading.
//! * The driver writes a large frame (`GradShard`) only when the link
//!   is idle: every read of the step has been drained by then. The
//!   worker is blocked in its receive, so it consumes the frame.
//! * A worker blocked writing a large reply waits only for the driver
//!   to read that link, and the driver always gets there: it never
//!   blocks in a write (above) and reads links one after another,
//!   waiting on one worker never depends on a different worker.
//!
//! A step that fails midway (a lost worker, a malformed reply) leaves
//! replies in flight and buffers half written, so the trainer drops
//! every held tag and refuses further steps instead of trusting them.
//!
//! Worker telemetry streams back in [`Message::Telemetry`] batches; the
//! orchestrator re-tracks each worker onto its stage id, shifts its
//! timestamps by the NTP-lite clock offset measured at handshake, and
//! merges everything into one trace `pmtrace` can summarize.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_nn::TrainModel;
use pipemare_optim::{clip_grad_norm, LrSchedule, OptimizerKind, T1Rescheduler};
use pipemare_pipeline::{Method, PipelineClock, StagePartition};
use pipemare_telemetry::{
    events_from_jsonl_string, merge_worker_events, sort_events, EventSource, LiveStore,
    MetricsRegistry, Recorder, SpanKind, TraceEvent, TraceRecorder, NO_MICROBATCH,
};
use pipemare_tensor::StoragePrecision;
use pipemare_theory::gamma_from_d;

use crate::codec::{SparseMode, TensorPayload, Writer};
use crate::error::CommsError;
use crate::protocol::{
    decode_message, decode_shard_into, GradHead, Message, PassKind, ShardHead, StageConfig,
    PROTOCOL_VERSION,
};
use crate::stage::{plan, ContentTag};
use crate::transport::{channel, Transport, WireStats};

/// Most `FetchShard`s a link may have unanswered at once (see the
/// module docs: it bounds what the driver writes while replies are
/// outstanding). A step rarely needs more than two per stage.
pub const FETCH_WINDOW: usize = 64;

/// Recompute simulation settings for a distributed run (mirrors the
/// core crate's `RecomputeCfg`, redeclared here to keep the dependency
/// graph acyclic: core depends on comms, not the reverse).
#[derive(Clone, Copy, Debug)]
pub struct DistRecompute {
    /// Number of gradient-checkpoint segments.
    pub segments: usize,
    /// Whether the T2-for-recompute correction is applied.
    pub t2: bool,
}

impl DistRecompute {
    /// The stage-group size implied by the segment count.
    pub fn segment_size(&self, stages: usize) -> usize {
        stages.div_ceil(self.segments.max(1)).max(1)
    }
}

/// Configuration for a [`DistributedTrainer`] run.
pub struct DistConfig {
    /// Pipeline scheduling method.
    pub method: Method,
    /// Number of pipeline stages (= workers).
    pub stages: usize,
    /// Microbatches per minibatch.
    pub n_micro: usize,
    /// Optimizer update rule (run shard-locally on each worker).
    pub optimizer: OptimizerKind,
    /// Base learning-rate schedule (indexed by optimizer step).
    pub schedule: Box<dyn LrSchedule>,
    /// T1 learning-rate rescheduling (None disables).
    pub t1: Option<T1Rescheduler>,
    /// T2 discrepancy-correction decay `D` (None disables).
    pub t2_decay: Option<f64>,
    /// Synchronous (T3) warmup steps.
    pub warmup_steps: usize,
    /// Global gradient-norm clip, applied driver-side before sharding.
    pub grad_clip: Option<f32>,
    /// Recompute delay simulation (None disables).
    pub recompute: Option<DistRecompute>,
    /// Partition stages by equal element counts instead of weight units.
    pub partition_by_elements: bool,
    /// Storage precision of each worker's non-latest weight-history
    /// versions ([`pipemare_tensor::StoragePrecision::Bf16`] halves both
    /// the shard footprint and the delayed-fetch wire bytes).
    pub weight_storage: StoragePrecision,
    /// How gradients are encoded on the wire. [`SparseMode::Dense`] and
    /// [`SparseMode::DropZeros`] are bit-lossless; threshold/top-k trade
    /// fidelity for wire bytes.
    pub sparse_grads: SparseMode,
    /// Receive timeout on every worker link (None blocks forever).
    pub recv_timeout: Option<Duration>,
}

impl DistConfig {
    /// A synchronous (GPipe) distributed baseline.
    pub fn gpipe(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
    ) -> Self {
        DistConfig {
            method: Method::GPipe,
            stages,
            n_micro,
            optimizer,
            schedule,
            t1: None,
            t2_decay: None,
            warmup_steps: 0,
            grad_clip: None,
            recompute: None,
            partition_by_elements: false,
            weight_storage: StoragePrecision::F32,
            sparse_grads: SparseMode::Dense,
            recv_timeout: None,
        }
    }

    /// A full PipeMare (T1 + T2) distributed configuration.
    pub fn pipemare(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
        t1: T1Rescheduler,
        t2_decay: f64,
    ) -> Self {
        DistConfig {
            method: Method::PipeMare,
            t1: Some(t1),
            t2_decay: Some(t2_decay),
            ..DistConfig::gpipe(stages, n_micro, optimizer, schedule)
        }
    }
}

/// Per-step statistics from [`DistributedTrainer::train_minibatch`]
/// (mirrors the core crate's `StepStats`).
#[derive(Clone, Copy, Debug)]
pub struct DistStepStats {
    /// Step index this update corresponds to.
    pub step: usize,
    /// Microbatch-weighted training loss.
    pub loss: f32,
    /// ‖w‖₂ after the update (∞ once diverged).
    pub param_norm: f32,
    /// Base learning rate before T1 rescaling.
    pub base_lr: f32,
    /// Whether training has diverged.
    pub diverged: bool,
}

/// Everything a finished distributed run hands back.
#[derive(Clone, Debug)]
pub struct DistRunReport {
    /// The merged trace: every worker's events re-tracked onto its stage
    /// id and clock-shifted into driver time, plus the driver's own
    /// events on track `stages`, sorted by `(ts_us, track)`.
    pub events: Vec<TraceEvent>,
    /// Steps each worker reported committed at shutdown.
    pub worker_steps: Vec<u64>,
    /// Total driver→worker traffic.
    pub sent: WireStats,
    /// Total worker→driver traffic.
    pub recv: WireStats,
}

/// One orchestrator↔worker link: message handles plus the bookkeeping
/// that makes failures diagnosable (stage id, last acked step, clock
/// offset).
pub struct WorkerLink {
    sender: crate::transport::Sender,
    receiver: crate::transport::Receiver,
    stage: u32,
    last_acked: Option<u64>,
    /// Worker clock minus driver clock, microseconds.
    offset_us: i64,
    /// The current step's fetches on this link, in the order their
    /// replies are needed (= sent = answered).
    fetches: VecDeque<Fetch>,
    /// How many of `fetches`, from the front, have been sent.
    sent: usize,
}

/// One `FetchShard` of the current step: the read (index into the
/// step's read order) whose buffer its reply fills.
struct Fetch {
    read: usize,
    micro: u32,
    pass: PassKind,
}

/// `(step, micro, pass)` — what a `FetchShard` asks for and its `Shard`
/// echoes.
type ShardKey = (u64, u32, PassKind);

impl WorkerLink {
    fn lost(&self, cause: CommsError) -> CommsError {
        CommsError::WorkerLost {
            stage: self.stage,
            last_acked_step: self.last_acked,
            cause: Box::new(cause),
        }
    }

    /// The stage id this link talks to.
    pub fn stage(&self) -> u32 {
        self.stage
    }

    /// Sends one message, wrapping transport failures into
    /// [`CommsError::WorkerLost`] with this link's diagnostics.
    pub fn send(&mut self, msg: &Message) -> Result<(), CommsError> {
        match self.sender.send(msg) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.lost(e)),
        }
    }

    /// Sends one already-encoded frame payload, failures wrapped as in
    /// [`WorkerLink::send`].
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        match self.sender.send_frame(payload) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.lost(e)),
        }
    }

    /// Receives one message; a worker-side [`Message::Error`] surfaces
    /// as [`CommsError::Remote`], transport failures as `WorkerLost`.
    pub fn recv(&mut self) -> Result<Message, CommsError> {
        match self.receiver.recv() {
            Ok(Message::Error { message, .. }) => {
                Err(CommsError::Remote { stage: self.stage, message })
            }
            Ok(msg) => Ok(msg),
            Err(e) => Err(self.lost(e)),
        }
    }

    /// Receives the [`Message::Shard`] answering `fetch`, decoding its
    /// tensor straight into `dst`; anything else is an error as in
    /// [`WorkerLink::recv`].
    fn recv_shard_into(&mut self, fetch: ShardKey, dst: &mut [f32]) -> Result<(), CommsError> {
        let payload = self.receiver.recv_frame().map_err(|e| self.lost(e))?;
        match decode_shard_into(&payload, dst) {
            Ok(Some(ShardHead { step, micro, pass, .. })) if (step, micro, pass) == fetch => Ok(()),
            Ok(Some(head)) => Err(CommsError::Protocol(format!(
                "stage {}: expected the Shard for {fetch:?}, got {:?}",
                self.stage,
                (head.step, head.micro, head.pass)
            ))),
            Ok(None) => match decode_message(&payload) {
                Ok(Message::Error { message, .. }) => {
                    Err(CommsError::Remote { stage: self.stage, message })
                }
                Ok(other) => Err(self.protocol("Shard", &other)),
                Err(e) => Err(self.lost(e.into())),
            },
            Err(e) => Err(self.lost(e.into())),
        }
    }

    /// Receives the [`Message::Telemetry`] batch a flush or shutdown
    /// request is answered with and merges it into `merged`, re-tracked
    /// onto this link's stage and shifted into driver time.
    fn recv_telemetry(&mut self, merged: &mut Vec<TraceEvent>) -> Result<(), CommsError> {
        match self.recv()? {
            Message::Telemetry { jsonl, .. } => {
                let events = events_from_jsonl_string(&jsonl).map_err(|e| {
                    CommsError::Protocol(format!("stage {}: bad telemetry: {e}", self.stage))
                })?;
                merge_worker_events(merged, &events, self.stage, self.offset_us);
                Ok(())
            }
            other => Err(self.protocol("Telemetry", &other)),
        }
    }

    fn protocol(&self, what: &str, got: &Message) -> CommsError {
        CommsError::Protocol(format!("stage {}: expected {what}, got {}", self.stage, got.name()))
    }
}

/// Performs the hello exchange on a fresh transport: sends the stage
/// config, validates the ack, and estimates the worker's clock offset
/// from the request/reply midpoint (NTP-lite).
pub fn handshake_worker(
    transport: Box<dyn Transport>,
    cfg: StageConfig,
    recv_timeout: Option<Duration>,
    driver_clock: &TraceRecorder,
) -> Result<WorkerLink, CommsError> {
    let stage = cfg.stage;
    let (sender, mut receiver) = channel(transport)?;
    receiver.set_timeout(recv_timeout)?;
    let mut link = WorkerLink {
        sender,
        receiver,
        stage,
        last_acked: None,
        offset_us: 0,
        fetches: VecDeque::new(),
        sent: 0,
    };
    let t_d0 = driver_clock.now_us();
    link.send(&Message::Hello(cfg))?;
    let ack = link.recv()?;
    let t_d1 = driver_clock.now_us();
    match ack {
        Message::HelloAck { protocol, stage: s, clock_us } => {
            if protocol != PROTOCOL_VERSION {
                return Err(CommsError::Handshake(format!(
                    "stage {stage}: worker speaks protocol v{protocol}, driver v{PROTOCOL_VERSION}"
                )));
            }
            if s != stage {
                return Err(CommsError::Handshake(format!(
                    "worker identified as stage {s}, expected {stage}"
                )));
            }
            // Assume symmetric latency: the worker sampled its clock at
            // roughly the midpoint of our send/recv interval.
            link.offset_us = clock_us as i64 - ((t_d0 + t_d1) / 2) as i64;
            Ok(link)
        }
        other => Err(link.protocol("HelloAck", &other)),
    }
}

fn build_stage_config(
    cfg: &DistConfig,
    clock: &PipelineClock,
    partition: &StagePartition,
    param_len: usize,
    s: usize,
) -> StageConfig {
    let (lo, hi) = partition.range(s);
    let seg = cfg.recompute.map(|rc| rc.segment_size(cfg.stages));
    // γ mirrors the in-process trainer: the delay gap is τ_fwd, widened
    // to max(τ_fwd, τ_recomp) when the T2-for-recompute correction is on
    // (App. D).
    let gap = match cfg.method {
        Method::PipeMare => {
            let tau_fwd = clock.nominal_tau_fwd(s);
            match (cfg.recompute, seg) {
                (Some(rc), Some(seg)) if rc.t2 => tau_fwd.max(clock.nominal_tau_recomp(seg, s)),
                _ => tau_fwd,
            }
        }
        _ => 0.0,
    };
    let gamma = cfg.t2_decay.map_or(0.0, |d| gamma_from_d(d, gap));
    StageConfig {
        protocol: PROTOCOL_VERSION,
        stage: s as u32,
        stages: cfg.stages as u32,
        n_micro: cfg.n_micro as u32,
        method: cfg.method,
        param_len: param_len as u64,
        shard_lo: lo as u64,
        shard_hi: hi as u64,
        opt: cfg.optimizer,
        t2_decay: cfg.t2_decay,
        gamma,
        recomp_slots: seg.map(|seg| clock.recomp_delay_slots(seg, s) as u32),
        recomp_t2: cfg.recompute.is_some_and(|rc| rc.t2),
        warmup_steps: cfg.warmup_steps as u64,
        weight_storage: cfg.weight_storage,
    }
}

/// Fetches one pass from every link at once — all requests out, then
/// each reply decoded straight into its `ranges[s]` slice of `out`.
/// Links must be idle (no step in flight).
pub fn gather_shards(
    links: &mut [WorkerLink],
    ranges: &[(usize, usize)],
    step: u64,
    micro: u32,
    pass: PassKind,
    out: &mut [f32],
) -> Result<(), CommsError> {
    for link in links.iter_mut() {
        link.send(&Message::FetchShard { step, micro, pass })?;
    }
    for (link, &(lo, hi)) in links.iter_mut().zip(ranges) {
        link.recv_shard_into((step, micro, pass), &mut out[lo..hi])?;
    }
    Ok(())
}

const FWD: usize = 0;
const BKWD: usize = 1;
const RECOMP: usize = 2;

/// Index of the trainer-owned buffer a pass reads into.
fn buffer_of(pass: PassKind) -> usize {
    match pass {
        PassKind::Fwd => FWD,
        PassKind::Bkwd => BKWD,
        PassKind::Recomp => RECOMP,
        PassKind::Latest => unreachable!("Latest reads are gathered, not buffered"),
    }
}

/// The trainer's parameter buffers: one full-length vector per buffered
/// pass kind, kept for the whole run, each remembering per stage the
/// tag of the shard it holds (`None`: nothing trustworthy).
struct ShardCache {
    bufs: [Vec<f32>; 3],
    held: [Vec<Option<ContentTag>>; 3],
}

impl ShardCache {
    fn invalidate(&mut self) {
        for held in &mut self.held {
            held.fill(None);
        }
    }

    /// Copies `[lo, hi)` of buffer `from` into buffer `to`.
    fn copy(&mut self, from: usize, to: usize, lo: usize, hi: usize) {
        let (src, dst) = if from < to {
            let (head, tail) = self.bufs.split_at_mut(to);
            (&head[from], &mut tail[0])
        } else {
            let (head, tail) = self.bufs.split_at_mut(from);
            (&tail[0], &mut head[to])
        };
        dst[lo..hi].copy_from_slice(&src[lo..hi]);
    }
}

/// A read served from another buffer that already holds its tag.
struct LocalCopy {
    read: usize,
    stage: usize,
    from: usize,
    to: usize,
}

/// The distributed pipeline trainer: one worker per stage over any
/// transport, driven by this struct on the orchestrator side.
pub struct DistributedTrainer<'m, M: TrainModel> {
    model: &'m M,
    cfg: DistConfig,
    partition: StagePartition,
    clock: PipelineClock,
    /// What each worker was configured with at handshake — the driver
    /// plans reads from the same values the worker serves them from.
    stage_cfgs: Vec<StageConfig>,
    links: Vec<WorkerLink>,
    cache: ShardCache,
    /// The current step's local copies, in read order.
    copies: VecDeque<LocalCopy>,
    grad: Vec<f32>,
    /// `FetchShard`s sent by training steps so far.
    fetches: u64,
    /// Set when a step failed midway; see [`Self::train_minibatch`].
    failed: bool,
    recorder: Arc<TraceRecorder>,
    registry: Arc<MetricsRegistry>,
    live: Arc<LiveStore>,
    merged: Vec<TraceEvent>,
    step: usize,
    diverged: bool,
    flush_seq: u64,
}

impl<'m, M: TrainModel> DistributedTrainer<'m, M> {
    /// Connects to one worker per stage (handshake + initial shard
    /// distribution). `init_seed` seeds parameter initialization exactly
    /// like `PipelineTrainer::new`, so the same seed produces the same
    /// starting weights.
    ///
    /// # Panics
    ///
    /// Panics if `transports.len() != cfg.stages` or a dimension is zero.
    pub fn connect(
        model: &'m M,
        cfg: DistConfig,
        init_seed: u64,
        transports: Vec<Box<dyn Transport>>,
    ) -> Result<Self, CommsError> {
        assert_eq!(transports.len(), cfg.stages, "one transport per stage");
        assert!(cfg.stages > 0 && cfg.n_micro > 0);
        let units: Vec<(usize, usize)> =
            model.weight_units().iter().map(|u| (u.offset, u.len)).collect();
        let total = model.param_len();
        let partition = if cfg.partition_by_elements {
            StagePartition::by_elements(total, cfg.stages)
        } else {
            StagePartition::from_units(&units, total, cfg.stages)
        };
        let clock = PipelineClock::new(cfg.stages, cfg.n_micro);
        let mut rng = StdRng::seed_from_u64(init_seed);
        let mut params = vec![0.0f32; total];
        model.init_params(&mut params, &mut rng);
        let recorder = Arc::new(TraceRecorder::with_tracks(cfg.stages + 1));
        let registry = Arc::new(MetricsRegistry::new());
        let mut links = Vec::with_capacity(cfg.stages);
        let mut stage_cfgs = Vec::with_capacity(cfg.stages);
        for (s, transport) in transports.into_iter().enumerate() {
            let sc = build_stage_config(&cfg, &clock, &partition, total, s);
            let mut link = handshake_worker(transport, sc.clone(), cfg.recv_timeout, &recorder)?;
            stage_cfgs.push(sc);
            // Mirror this link's wire counters into live gauges so a
            // stats scrape sees per-stage traffic without touching the
            // links themselves.
            link.sender.bind_gauges(&registry, &format!("wire.stage{s}"));
            link.receiver.bind_gauges(&registry, &format!("wire.stage{s}"));
            let (lo, hi) = partition.range(s);
            link.send(&Message::InitShard { params: params[lo..hi].to_vec() })?;
            links.push(link);
        }
        // The initial vector becomes the forward buffer: it is version
        // 0, read as the f32 master, at every stage.
        let mut held = [vec![None; cfg.stages], vec![None; cfg.stages], vec![None; cfg.stages]];
        for (s, sc) in stage_cfgs.iter().enumerate() {
            held[FWD][s] = Some(plan(sc, &clock, 0, 0, PassKind::Latest)?.tag(sc, 0));
        }
        let recomputes = cfg.recompute.is_some() && cfg.method == Method::PipeMare;
        let recomp_buf = if recomputes { vec![0.0f32; total] } else { Vec::new() };
        let cache = ShardCache { bufs: [params, vec![0.0f32; total], recomp_buf], held };
        let live = Arc::new(
            LiveStore::new("orchestrator", cfg.stages)
                .with_registry(Arc::clone(&registry))
                .with_events(Arc::clone(&recorder) as Arc<dyn EventSource + Send + Sync>),
        );
        Ok(DistributedTrainer {
            model,
            cfg,
            partition,
            clock,
            stage_cfgs,
            links,
            cache,
            copies: VecDeque::new(),
            grad: vec![0.0f32; total],
            fetches: 0,
            failed: false,
            recorder,
            registry,
            live,
            merged: Vec::new(),
            step: 0,
            diverged: false,
            flush_seq: 0,
        })
    }

    /// The driver's live stats store (role `orchestrator`): driver-side
    /// step spans folded into per-stage activity plus `wire.stage{s}.*`
    /// traffic gauges. Hook it to a
    /// [`pipemare_telemetry::StatsEndpoint`] /
    /// [`pipemare_telemetry::StoreTicker`] to let `pmtop` watch a run.
    pub fn live_store(&self) -> Arc<LiveStore> {
        Arc::clone(&self.live)
    }

    /// The driver-side metrics registry backing [`Self::live_store`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Per-stage handshake clock offsets (worker clock µs minus driver
    /// clock µs, one per link). `pmquery` uses these — written as
    /// `OFFSET` files next to each worker's journal — to merge
    /// multi-process journals onto the driver timebase, the same
    /// convention `merge_worker_events` uses for traces.
    pub fn clock_offsets(&self) -> Vec<i64> {
        self.links.iter().map(|l| l.offset_us).collect()
    }

    /// Optimizer steps completed.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Whether training has hit non-finite weights or gradients.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// The stage partition in use.
    pub fn partition(&self) -> &StagePartition {
        &self.partition
    }

    /// What each stage's worker was configured with at handshake, by
    /// stage — with [`plan`], everything needed to say what any read of
    /// the run returns.
    pub fn stage_configs(&self) -> &[StageConfig] {
        &self.stage_cfgs
    }

    /// `FetchShard` requests training steps have sent so far, over all
    /// stages — one per distinct content tag the driver did not hold.
    pub fn shard_fetches(&self) -> u64 {
        self.fetches
    }

    fn t1_scale(&self, s: usize, t_async: usize, sync_phase: bool) -> f32 {
        match (&self.cfg.t1, sync_phase, self.cfg.method) {
            (Some(t1), false, Method::PipeMare) => t1.scale(t_async, self.clock.nominal_tau_fwd(s)),
            _ => 1.0,
        }
    }

    /// Sends queued fetches on link `s` up to the window.
    fn pump(&mut self, s: usize) -> Result<(), CommsError> {
        let step = self.step as u64;
        let link = &mut self.links[s];
        while link.sent < link.fetches.len().min(FETCH_WINDOW) {
            let Fetch { micro, pass, .. } = link.fetches[link.sent];
            link.send(&Message::FetchShard { step, micro, pass })?;
            link.sent += 1;
            self.fetches += 1;
        }
        Ok(())
    }

    /// Resolves every read of step `self.step`, in the order the step
    /// needs them, against what the buffers will hold by then: held
    /// tags cost nothing, tags another buffer holds become local
    /// copies, the rest are fetched — and all fetches go out now.
    ///
    /// The held tags are advanced here, ahead of the data; until
    /// [`Self::await_read`] has run for a read its buffer is not yet
    /// what the tags say. A failure in between is why
    /// [`Self::train_minibatch`] invalidates everything on error.
    fn schedule_reads(&mut self, reads: &[(u32, PassKind)]) -> Result<(), CommsError> {
        let step = self.step as u64;
        for (read, &(micro, pass)) in reads.iter().enumerate() {
            let to = buffer_of(pass);
            for (s, sc) in self.stage_cfgs.iter().enumerate() {
                let tag = Some(plan(sc, &self.clock, step, micro, pass)?.tag(sc, step));
                if self.cache.held[to][s] == tag {
                    continue;
                }
                match (0..self.cache.held.len()).find(|&b| self.cache.held[b][s] == tag) {
                    Some(from) => self.copies.push_back(LocalCopy { read, stage: s, from, to }),
                    None => self.links[s].fetches.push_back(Fetch { read, micro, pass }),
                }
                self.cache.held[to][s] = tag;
            }
        }
        for s in 0..self.links.len() {
            self.pump(s)?;
        }
        Ok(())
    }

    /// Brings the buffer of read `read` up to date: drains, per link,
    /// the replies of every fetch up to and including that read — never
    /// a later one, whose reply would overwrite values this read or a
    /// copy still needs — then performs the read's local copies.
    fn await_read(&mut self, read: usize) -> Result<(), CommsError> {
        let step = self.step as u64;
        for s in 0..self.links.len() {
            let (lo, hi) = self.partition.range(s);
            while self.links[s].fetches.front().is_some_and(|f| f.read <= read) {
                let link = &mut self.links[s];
                let Fetch { micro, pass, .. } = link.fetches.pop_front().expect("front exists");
                link.sent -= 1;
                let dst = &mut self.cache.bufs[buffer_of(pass)][lo..hi];
                link.recv_shard_into((step, micro, pass), dst)?;
                self.pump(s)?;
            }
        }
        while self.copies.front().is_some_and(|c| c.read <= read) {
            let LocalCopy { stage, from, to, .. } = self.copies.pop_front().expect("front exists");
            let (lo, hi) = self.partition.range(stage);
            self.cache.copy(from, to, lo, hi);
        }
        Ok(())
    }

    /// Drains every worker's telemetry and merges it into the combined
    /// trace (a streaming flush barrier): every `Flush` goes out before
    /// the first reply is read.
    fn flush_telemetry(&mut self) -> Result<(), CommsError> {
        self.flush_seq += 1;
        let id = self.flush_seq;
        for link in &mut self.links {
            link.send(&Message::Flush { id })?;
        }
        for link in &mut self.links {
            link.recv_telemetry(&mut self.merged)?;
            match link.recv()? {
                Message::FlushAck { id: got, .. } if got == id => {}
                other => return Err(link.protocol("FlushAck", &other)),
            }
        }
        Ok(())
    }

    /// After a failed exchange: replies may still be in flight and a
    /// buffer half written, so nothing held is trusted again.
    fn poison(&mut self) {
        self.failed = true;
        self.cache.invalidate();
        self.copies.clear();
        for link in &mut self.links {
            link.fetches.clear();
            link.sent = 0;
        }
    }

    fn check_usable(&self) -> Result<(), CommsError> {
        if self.failed {
            return Err(CommsError::Protocol(
                "trainer is unusable: an earlier exchange failed with replies in flight".into(),
            ));
        }
        Ok(())
    }

    /// Runs one optimizer step on a minibatch of `n_micro` microbatches,
    /// mirroring `PipelineTrainer::train_minibatch` bit for bit.
    ///
    /// # Errors
    ///
    /// Any link failure. The links are then out of step with the
    /// protocol, so the trainer drops every held tag and this and every
    /// later call (and [`Self::gather_params`]) returns an error;
    /// [`Self::shutdown`] still tries to stop the workers.
    ///
    /// # Panics
    ///
    /// Panics if the microbatch count or weight count is wrong.
    pub fn train_minibatch(
        &mut self,
        micro: &[M::Batch],
        micro_weights: &[f32],
    ) -> Result<DistStepStats, CommsError> {
        assert_eq!(micro.len(), self.cfg.n_micro, "microbatch count mismatch");
        assert_eq!(micro.len(), micro_weights.len());
        self.check_usable()?;
        let out = self.step_once(micro, micro_weights);
        if out.is_err() {
            self.poison();
        }
        out
    }

    fn step_once(
        &mut self,
        micro: &[M::Batch],
        micro_weights: &[f32],
    ) -> Result<DistStepStats, CommsError> {
        let t = self.step;
        let sync_phase = t < self.cfg.warmup_steps;
        let base_lr = self.cfg.schedule.lr(t);
        let span_t0 = self.recorder.now_us();

        if self.diverged {
            self.step += 1;
            return Ok(DistStepStats {
                step: t,
                loss: f32::NAN,
                param_norm: f32::INFINITY,
                base_lr,
                diverged: true,
            });
        }

        let recompute_pass =
            self.cfg.recompute.is_some() && !sync_phase && self.cfg.method == Method::PipeMare;
        let mut reads = Vec::with_capacity(3 * micro.len());
        for n in 0..micro.len() as u32 {
            reads.push((n, PassKind::Fwd));
            if recompute_pass {
                reads.push((n, PassKind::Recomp));
            }
            reads.push((n, PassKind::Bkwd));
        }
        self.schedule_reads(&reads)?;

        self.grad.fill(0.0);
        let mut loss_acc = 0.0f32;
        let mut read = 0;
        for (n, batch) in micro.iter().enumerate() {
            self.await_read(read)?;
            read += 1;
            let (loss, cache) = if recompute_pass {
                // Loss from the true forward; backward consumes the
                // recompute-version activations (App. D), exactly like
                // the in-process trainer's simulation.
                let (loss, _) = self.model.forward_loss(&self.cache.bufs[FWD], batch);
                self.await_read(read)?;
                read += 1;
                let (_, cache) = self.model.forward_loss(&self.cache.bufs[RECOMP], batch);
                (loss, cache)
            } else {
                self.model.forward_loss(&self.cache.bufs[FWD], batch)
            };
            loss_acc += micro_weights[n] * loss;
            self.await_read(read)?;
            read += 1;
            let g = self.model.backward(&self.cache.bufs[BKWD], &cache);
            for (acc, &gi) in self.grad.iter_mut().zip(g.iter()) {
                *acc += micro_weights[n] * gi;
            }
        }

        if let Some(clip) = self.cfg.grad_clip {
            clip_grad_norm(&mut self.grad, clip);
        }
        let grad_finite = self.grad.iter().all(|g| g.is_finite());
        let t_async = t.saturating_sub(self.cfg.warmup_steps);

        // Phase 1: ship gradient shards; workers stage the update. Each
        // frame is encoded straight from the gradient's slice, into one
        // scratch buffer that lives only for this phase.
        let mut frame = Vec::new();
        for s in 0..self.cfg.stages {
            let (lo, hi) = self.partition.range(s);
            let head = GradHead {
                step: t as u64,
                lr: base_lr * self.t1_scale(s, t_async, sync_phase),
                apply: grad_finite,
                // The step's causal trace id (step is 0-based; trace 0
                // means "absent"): the worker stamps its Step span with
                // it, chaining the update across processes.
                trace: t as u64 + 1,
            };
            Writer::refill(&mut frame, |w| {
                head.encode(w);
                TensorPayload::encode_from_dense(w, &self.grad[lo..hi], self.cfg.sparse_grads);
            });
            self.links[s].send_frame(&frame)?;
        }
        drop(frame);
        let mut finite = grad_finite;
        for link in &mut self.links {
            match link.recv()? {
                Message::StepAck { step, finite: f, .. } if step == t as u64 => {
                    link.last_acked = Some(step);
                    finite &= f;
                }
                other => return Err(link.protocol("StepAck", &other)),
            }
        }

        // Phase 2: commit or revert everywhere.
        let keep = finite;
        if !keep {
            self.diverged = true;
        }
        let mut sq_norm = 0.0f64;
        for link in &mut self.links {
            link.send(&Message::Commit { step: t as u64, keep })?;
        }
        for link in &mut self.links {
            match link.recv()? {
                Message::CommitAck { step, sq_norm: sq, .. } if step == t as u64 => {
                    sq_norm += sq;
                }
                other => return Err(link.protocol("CommitAck", &other)),
            }
        }
        self.step += 1;
        self.recorder.record_span_traced(
            SpanKind::Step,
            self.cfg.stages as u32,
            0,
            t as u32,
            t as u64 + 1,
            span_t0,
            self.recorder.now_us(),
        );
        self.flush_telemetry()?;
        Ok(DistStepStats {
            step: t,
            loss: loss_acc,
            param_norm: sq_norm.sqrt() as f32,
            base_lr,
            diverged: self.diverged,
        })
    }

    /// Gathers the latest committed full parameter vector.
    pub fn gather_params(&mut self) -> Result<Vec<f32>, CommsError> {
        self.check_usable()?;
        let mut out = vec![0.0f32; self.partition.total_params()];
        let (step, ranges) = (self.step as u64, self.partition.ranges());
        let got = gather_shards(&mut self.links, ranges, step, 0, PassKind::Latest, &mut out);
        if got.is_err() {
            self.poison();
        }
        got.map(|()| out)
    }

    /// Shuts every worker down, collects their final telemetry, and
    /// returns the merged run report.
    pub fn shutdown(mut self) -> Result<DistRunReport, CommsError> {
        let mut worker_steps = Vec::with_capacity(self.cfg.stages);
        for link in &mut self.links {
            link.send(&Message::Shutdown)?;
        }
        for link in &mut self.links {
            link.recv_telemetry(&mut self.merged)?;
            match link.recv()? {
                Message::ShutdownAck { last_step, .. } => worker_steps.push(last_step),
                other => return Err(link.protocol("ShutdownAck", &other)),
            }
        }
        let mut events = self.merged;
        events.extend(self.recorder.events());
        sort_events(&mut events);
        let mut sent = WireStats::default();
        let mut recv = WireStats::default();
        for link in &self.links {
            let s = link.sender.stats();
            let r = link.receiver.stats();
            sent.bytes += s.bytes;
            sent.msgs += s.msgs;
            recv.bytes += r.bytes;
            recv.msgs += r.msgs;
        }
        Ok(DistRunReport { events, worker_steps, sent, recv })
    }
}

// ---------------------------------------------------------------------------
// Worker spawning helpers
// ---------------------------------------------------------------------------

/// Join handle for a spawned stage-worker thread.
pub type WorkerHandle =
    std::thread::JoinHandle<Result<crate::worker::StageWorkerReport, CommsError>>;

/// Spawns `stages` in-process stage workers over loopback transports.
/// Returns the driver-side transports (index = stage) and the worker
/// thread handles to join after shutdown.
pub fn spawn_loopback_workers(stages: usize) -> (Vec<Box<dyn Transport>>, Vec<WorkerHandle>) {
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(stages);
    let mut handles = Vec::with_capacity(stages);
    for _ in 0..stages {
        let (driver_end, worker_end) = crate::transport::loopback_pair();
        transports.push(Box::new(driver_end));
        handles.push(std::thread::spawn(move || {
            let (tx, rx) = channel(Box::new(worker_end))?;
            crate::worker::run_stage_worker(tx, rx)
        }));
    }
    (transports, handles)
}

// ---------------------------------------------------------------------------
// Token pipeline (latency simulation over the wire)
// ---------------------------------------------------------------------------

/// Result of a distributed token-pipeline run.
#[derive(Clone, Debug)]
pub struct TokenPipelineReport {
    /// Total wall-clock time of the token phase.
    pub elapsed: Duration,
    /// Microbatches fully processed (forward + backward).
    pub microbatches: usize,
    /// Microbatches per second.
    pub throughput: f64,
    /// Merged trace (workers re-tracked + clock-shifted, driver on track
    /// `stages`), sorted.
    pub events: Vec<TraceEvent>,
}

/// Builds the minimal valid [`StageConfig`] a token-mode worker needs
/// (token mode carries no weights; the shard fields are placeholders
/// that still pass handshake validation).
pub fn token_stage_config(method: Method, stages: usize, n_micro: usize, s: usize) -> StageConfig {
    StageConfig {
        protocol: PROTOCOL_VERSION,
        stage: s as u32,
        stages: stages as u32,
        n_micro: n_micro as u32,
        method,
        param_len: stages as u64,
        shard_lo: s as u64,
        shard_hi: s as u64 + 1,
        opt: OptimizerKind::Sgd { weight_decay: 0.0 },
        t2_decay: None,
        gamma: 0.0,
        recomp_slots: None,
        recomp_t2: false,
        warmup_steps: 0,
        weight_storage: StoragePrecision::F32,
    }
}

/// Drives `minibatches × n_micro` microbatch tokens through `stages`
/// remote workers, reproducing `run_threaded_pipeline_traced`'s
/// injection policy (GPipe drains per minibatch; the async methods keep
/// at most `stages + 1` tokens in flight, the depth the in-process
/// executor's bounded channels allow) and its telemetry span multiset.
///
/// # Panics
///
/// Panics if `transports.len() != stages` or any dimension is zero.
pub fn run_token_pipeline(
    transports: Vec<Box<dyn Transport>>,
    method: Method,
    stages: usize,
    n_micro: usize,
    minibatches: usize,
    work_per_stage: Duration,
    recv_timeout: Option<Duration>,
) -> Result<TokenPipelineReport, CommsError> {
    assert_eq!(transports.len(), stages, "one transport per stage");
    assert!(stages > 0 && n_micro > 0 && minibatches > 0);
    let total = n_micro * minibatches;
    let recorder = TraceRecorder::with_tracks(stages + 1);
    let driver_track = stages as u32;

    // Handshake + mode switch on every link, then split each into a hub
    // sender (kept here) and a reader thread feeding one central channel
    // — token traffic is not request/reply, so receives must not block
    // the routing loop.
    let mut offsets = Vec::with_capacity(stages);
    let mut senders = Vec::with_capacity(stages);
    let (agg_tx, agg_rx) = crossbeam_channel::unbounded::<(u32, Result<Message, CommsError>)>();
    let mut reader_handles = Vec::with_capacity(stages);
    for (s, transport) in transports.into_iter().enumerate() {
        let sc = token_stage_config(method, stages, n_micro, s);
        let mut link = handshake_worker(transport, sc, recv_timeout, &recorder)?;
        link.send(&Message::TokenMode {
            total: total as u64,
            is_last: s + 1 == stages,
            work_us: work_per_stage.as_micros() as u64,
        })?;
        offsets.push(link.offset_us);
        let WorkerLink { sender, mut receiver, stage, .. } = link;
        senders.push(sender);
        let agg = agg_tx.clone();
        reader_handles.push(std::thread::spawn(move || loop {
            match receiver.recv() {
                Ok(msg) => {
                    let done = matches!(msg, Message::ShutdownAck { .. });
                    if agg.send((stage, Ok(msg))).is_err() || done {
                        return receiver;
                    }
                }
                // A timeout on an idle link is not an event; real
                // connection loss is fatal and surfaces to the hub.
                Err(CommsError::Timeout) => continue,
                Err(e) => {
                    let _ = agg.send((stage, Err(e)));
                    return receiver;
                }
            }
        }));
    }
    drop(agg_tx);

    let send_to = |senders: &mut Vec<crate::transport::Sender>,
                   s: usize,
                   msg: &Message|
     -> Result<(), CommsError> {
        senders[s].send(msg).map_err(|e| CommsError::WorkerLost {
            stage: s as u32,
            last_acked_step: None,
            cause: Box::new(e),
        })
    };

    let start = Instant::now();
    let mut injected = 0usize;
    let mut completed = 0usize;
    // The in-process executor's bounded(1) forward channels cap the
    // in-flight depth; mirror that so injection does not flood slow
    // workers.
    let in_flight_cap = stages + 1;
    let mut next_minibatch_gate = if method == Method::GPipe { n_micro } else { total };
    let mut flush_start = recorder.now_us();
    while completed < total {
        while injected < total
            && injected - completed < in_flight_cap
            && injected < next_minibatch_gate
        {
            send_to(&mut senders, 0, &Message::Token { backward: false, id: injected as u64 })?;
            recorder.record_instant(SpanKind::Inject, driver_track, 0, injected as u32);
            injected += 1;
        }
        let (stage, msg) = agg_rx.recv().map_err(|_| CommsError::Closed)?;
        let msg = msg.map_err(|e| CommsError::WorkerLost {
            stage,
            last_acked_step: None,
            cause: Box::new(e),
        })?;
        match msg {
            Message::Token { backward: false, id } => {
                // A forward token leaving stage `stage` enters the next
                // stage (the last stage turns around internally and never
                // emits forward tokens).
                send_to(&mut senders, stage as usize + 1, &Message::Token { backward: false, id })?;
            }
            Message::Token { backward: true, id } => {
                if stage == 0 {
                    completed += 1;
                    if method == Method::GPipe && completed == next_minibatch_gate {
                        recorder.record_span(
                            SpanKind::Flush,
                            driver_track,
                            0,
                            NO_MICROBATCH,
                            flush_start,
                            recorder.now_us(),
                        );
                        flush_start = recorder.now_us();
                        next_minibatch_gate = (next_minibatch_gate + n_micro).min(total);
                    }
                } else {
                    send_to(
                        &mut senders,
                        stage as usize - 1,
                        &Message::Token { backward: true, id },
                    )?;
                }
            }
            other => {
                return Err(CommsError::Protocol(format!(
                    "stage {stage}: unexpected {} during token routing",
                    other.name()
                )))
            }
        }
    }
    // Final drain span, mirroring the executor's end-of-run flush.
    recorder.record_span(
        SpanKind::Flush,
        driver_track,
        0,
        NO_MICROBATCH,
        flush_start,
        recorder.now_us(),
    );
    let elapsed = start.elapsed();

    // Shut down: workers reply Telemetry + ShutdownAck through the
    // reader threads.
    for s in 0..stages {
        send_to(&mut senders, s, &Message::Shutdown)?;
    }
    let mut merged: Vec<TraceEvent> = Vec::new();
    let mut acked = vec![false; stages];
    while acked.iter().any(|&a| !a) {
        let (stage, msg) = agg_rx.recv().map_err(|_| CommsError::Closed)?;
        match msg {
            Ok(Message::Telemetry { jsonl, .. }) => {
                let events = events_from_jsonl_string(&jsonl).map_err(|e| {
                    CommsError::Protocol(format!("stage {stage}: bad telemetry: {e}"))
                })?;
                merge_worker_events(&mut merged, &events, stage, offsets[stage as usize]);
            }
            Ok(Message::ShutdownAck { .. }) => acked[stage as usize] = true,
            // Stray tokens from a pipeline that was already drained, or a
            // late flush ack: ignore.
            Ok(_) => {}
            Err(e) => {
                return Err(CommsError::WorkerLost {
                    stage,
                    last_acked_step: None,
                    cause: Box::new(e),
                })
            }
        }
    }
    for h in reader_handles {
        let _ = h.join();
    }
    merged.extend(recorder.events());
    sort_events(&mut merged);
    Ok(TokenPipelineReport {
        elapsed,
        microbatches: total,
        throughput: total as f64 / elapsed.as_secs_f64(),
        events: merged,
    })
}
