//! The orchestrator: drives N stage workers over any transport.
//!
//! Topology is a star — the orchestrator holds one link per worker.
//! Two drivers live here:
//!
//! * [`DistributedTrainer`] — the [`StepDriver`] over [`RemoteShards`]:
//!   workers own their stage's weight shard, serve delayed/T2-corrected
//!   versions of it, and run the optimizer; everything else about a step
//!   is the driver's, shared with the in-process trainer (see `driver`).
//! * [`run_token_pipeline`] — the distributed counterpart of
//!   `pipemare_pipeline::run_pipeline`: microbatch tokens hop between
//!   workers through the hub, each worker walking its stage's row with
//!   the in-process stage threads' loop, so the latency pipeline (and its
//!   telemetry spans) is reproduced across real transports.
//!
//! # Scatter/gather, and why it cannot deadlock
//!
//! The driver sends all of a step's `FetchShard`s before the first
//! forward, so workers encode and write their replies while it computes,
//! and drains each reply at the read that needs it. Gradient shards,
//! commits and telemetry flushes are likewise sent to every stage before
//! the first ack is read. A link is still FIFO both ways — the worker
//! answers in request order — it is just no longer one-at-a-time. That
//! is deadlock-free because of what each side may have in flight:
//!
//! * While replies are outstanding on a link the driver writes only
//!   tiny frames to it (`FetchShard` 14 B, `Commit` 10 B, `Flush` 9 B),
//!   at most [`crate::driver::FETCH_WINDOW`] of them unanswered, under 2 KiB — less
//!   than any socket buffer, so the driver's writes never wait on the
//!   worker reading.
//! * The driver writes large frames (a gradient's `GradShard` chunks)
//!   only when the link is idle: every read of the step has been
//!   drained by then. The worker is blocked in its receive and consumes
//!   each chunk, writing nothing until the last has arrived.
//! * A worker blocked writing a reply chunk waits only for the driver
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
//! merges everything into one trace `pm trace` can summarize.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pipemare_nn::TrainModel;
use pipemare_optim::OptimizerKind;
use pipemare_pipeline::{Method, OpenPlan, RecomputePolicy};
use pipemare_telemetry::{
    events_from_jsonl_string, merge_worker_events, sort_events, EventSource, FlightRecorder,
    LiveStore, MetricsRegistry, Recorder, SpanKind, TraceEvent, NO_MICROBATCH,
};
use pipemare_tensor::StoragePrecision;

use crate::codec::{ChunkEncoder, CodecError, SparseMode, Writer};
use crate::config::{StepStats, TrainConfig};
use crate::driver::{Fetch, RunLayout, ShardAccess, StepDriver};
use crate::error::CommsError;
use crate::protocol::{
    decode_message, decode_shard_into, shard_chunks, GradHead, Message, PassKind, ShardHead,
    StageConfig, PROTOCOL_VERSION,
};
use crate::transport::{channel, Transport, WireStats};
use crate::worker::WorkerOptions;

/// Configuration for a [`DistributedTrainer`] run: the run itself plus
/// what only a wire has.
pub struct DistConfig {
    /// The training run — the configuration the in-process trainer takes.
    pub train: TrainConfig,
    /// How gradients are encoded on the wire. [`SparseMode::Dense`] and
    /// [`SparseMode::DropZeros`] are bit-lossless; threshold/top-k trade
    /// fidelity for wire bytes.
    pub sparse_grads: SparseMode,
    /// Receive timeout on every worker link (None blocks forever).
    pub recv_timeout: Option<Duration>,
}

impl DistConfig {
    /// `train` over the wire with dense gradients and no receive timeout.
    pub fn new(train: TrainConfig) -> Self {
        DistConfig { train, sparse_grads: SparseMode::Dense, recv_timeout: None }
    }

    /// The pipeline method of the run.
    ///
    /// # Errors
    ///
    /// [`CommsError::Unsupported`] for Hogwild mode, which has no
    /// distributed counterpart: its delays are drawn driver-side per
    /// step, and a worker serves only what [`crate::stage::plan`]
    /// decides.
    pub fn method(&self) -> Result<Method, CommsError> {
        self.train.mode.method().ok_or_else(|| {
            CommsError::Unsupported(
                "Hogwild delays are not supported by the distributed trainer".to_string(),
            )
        })
    }
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
    /// Events of the worker's [`Message::Telemetry`] batches, merged as
    /// they arrive: one answers each flush, others come unasked.
    shipped: Vec<TraceEvent>,
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

    /// Receives the reply to a request, as [`WorkerLink::recv`], keeping
    /// any [`Message::Telemetry`] batch that comes first for the next
    /// flush.
    fn recv_reply(&mut self) -> Result<Message, CommsError> {
        loop {
            match self.recv()? {
                Message::Telemetry { jsonl, .. } => {
                    merge_telemetry(&mut self.shipped, self.stage, self.offset_us, &jsonl)?
                }
                msg => return Ok(msg),
            }
        }
    }

    /// Receives the run of [`Message::Shard`] chunks answering `fetch`,
    /// decoding each straight into its slice of `dst`; anything else is
    /// an error as in [`WorkerLink::recv`], and a chunk of the wrong
    /// length a [`CommsError::Protocol`] one.
    fn recv_shard_into(&mut self, fetch: ShardKey, dst: &mut [f32]) -> Result<(), CommsError> {
        shard_chunks(dst.len()).try_for_each(|range| self.recv_shard_chunk(fetch, &mut dst[range]))
    }

    fn recv_shard_chunk(&mut self, fetch: ShardKey, dst: &mut [f32]) -> Result<(), CommsError> {
        let payload = self.receiver.recv_frame().map_err(|e| self.lost(e))?;
        match decode_shard_into(&payload, dst) {
            Ok(Some(ShardHead { step, micro, pass, .. })) if (step, micro, pass) == fetch => Ok(()),
            Ok(Some(head)) => Err(CommsError::Protocol(format!(
                "stage {}: expected the Shard for {fetch:?}, got {:?}",
                self.stage,
                (head.step, head.micro, head.pass)
            ))),
            Ok(None) => match decode_message(&payload) {
                Ok(Message::Telemetry { jsonl, .. }) => {
                    merge_telemetry(&mut self.shipped, self.stage, self.offset_us, &jsonl)?;
                    self.recv_shard_chunk(fetch, dst)
                }
                Ok(Message::Error { message, .. }) => {
                    Err(CommsError::Remote { stage: self.stage, message })
                }
                Ok(other) => Err(self.protocol("Shard", &other)),
                Err(e) => Err(self.lost(e.into())),
            },
            Err(CodecError::LengthMismatch { expected, got }) => {
                Err(CommsError::Protocol(format!(
                    "stage {}: Shard chunk of {got} values for {fetch:?}, {expected} due",
                    self.stage
                )))
            }
            Err(e) => Err(self.lost(e.into())),
        }
    }

    /// Sends `grad`, this link's stage's slice of a step's gradient, as
    /// the run of [`Message::GradShard`] chunks the worker applies as
    /// they arrive, each encoded under `mode` straight from `grad` into
    /// one chunk-sized frame (what is kept is decided over the whole
    /// slice; see [`ChunkEncoder`]). Failures are wrapped as in
    /// [`WorkerLink::send`].
    pub fn send_grad(
        &mut self,
        head: GradHead,
        grad: &[f32],
        mode: SparseMode,
    ) -> Result<(), CommsError> {
        let (payload, mut frame) = (ChunkEncoder::new(grad, mode), Vec::new());
        for range in shard_chunks(grad.len()) {
            Writer::refill(&mut frame, |w| {
                head.encode(w);
                payload.encode(w, range);
            });
            self.send_frame(&frame)?;
        }
        Ok(())
    }

    fn protocol(&self, what: &str, got: &Message) -> CommsError {
        CommsError::Protocol(format!("stage {}: expected {what}, got {}", self.stage, got.name()))
    }
}

/// Merges one [`Message::Telemetry`] batch from `stage`'s worker into
/// `merged`, re-tracked onto the stage and shifted into driver time.
fn merge_telemetry(
    merged: &mut Vec<TraceEvent>,
    stage: u32,
    offset_us: i64,
    jsonl: &str,
) -> Result<(), CommsError> {
    let events = events_from_jsonl_string(jsonl)
        .map_err(|e| CommsError::Protocol(format!("stage {stage}: bad telemetry: {e}")))?;
    merge_worker_events(merged, &events, stage, offset_us);
    Ok(())
}

/// Performs the hello exchange on a fresh transport: sends the stage
/// config, validates the ack, and estimates the worker's clock offset
/// from the request/reply midpoint (NTP-lite).
pub fn handshake_worker(
    transport: Box<dyn Transport>,
    cfg: StageConfig,
    recv_timeout: Option<Duration>,
    driver_clock: &impl Recorder,
) -> Result<WorkerLink, CommsError> {
    let stage = cfg.stage;
    let (sender, mut receiver) = channel(transport)?;
    receiver.set_timeout(recv_timeout)?;
    let mut link =
        WorkerLink { sender, receiver, stage, last_acked: None, offset_us: 0, shipped: Vec::new() };
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

/// Shards behind worker links: a request is a `FetchShard`, a fill
/// decodes its reply, stage and commit are scatter-then-gather
/// exchanges (see the module docs for the frame order's safety).
pub struct RemoteShards {
    links: Vec<WorkerLink>,
    sparse_grads: SparseMode,
}

impl ShardAccess for RemoteShards {
    fn request(&mut self, s: usize, f: &Fetch) -> Result<(), CommsError> {
        self.links[s].send(&Message::FetchShard { step: f.step, micro: f.micro, pass: f.pass })
    }

    fn fill(&mut self, s: usize, f: &Fetch, dst: &mut [f32]) -> Result<(), CommsError> {
        self.links[s].recv_shard_into((f.step, f.micro, f.pass), dst)
    }

    fn stage_update(
        &mut self,
        step: u64,
        apply: bool,
        lr: &dyn Fn(usize) -> f32,
        grad: &[f32],
        ranges: &[(usize, usize)],
    ) -> Result<bool, CommsError> {
        for (s, (link, &(lo, hi))) in self.links.iter_mut().zip(ranges).enumerate() {
            // The step's causal trace id (step is 0-based; trace 0 means
            // "absent"): the worker stamps its Step span with it,
            // chaining the update across processes.
            let head = GradHead { step, lr: lr(s), apply, trace: step + 1 };
            link.send_grad(head, &grad[lo..hi], self.sparse_grads)?;
        }
        let mut finite = true;
        for link in &mut self.links {
            match link.recv_reply()? {
                Message::StepAck { step: got, finite: f, .. } if got == step => {
                    link.last_acked = Some(step);
                    finite &= f;
                }
                other => return Err(link.protocol("StepAck", &other)),
            }
        }
        Ok(finite)
    }

    fn commit(&mut self, step: u64, keep: bool) -> Result<f64, CommsError> {
        for link in &mut self.links {
            link.send(&Message::Commit { step, keep })?;
        }
        let mut sq_norm = 0.0f64;
        for link in &mut self.links {
            match link.recv_reply()? {
                Message::CommitAck { step: got, sq_norm: sq, .. } if got == step => sq_norm += sq,
                other => return Err(link.protocol("CommitAck", &other)),
            }
        }
        Ok(sq_norm)
    }
}

/// The distributed pipeline trainer: one worker per stage over any
/// transport, driven by this struct on the orchestrator side.
pub struct DistributedTrainer<'m, M: TrainModel> {
    model: &'m M,
    driver: StepDriver<RemoteShards>,
    recorder: Arc<FlightRecorder>,
    live: Arc<LiveStore>,
    merged: Vec<TraceEvent>,
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
    /// Panics if `transports.len() != cfg.train.stages` or a dimension is
    /// zero.
    pub fn connect(
        model: &'m M,
        cfg: DistConfig,
        init_seed: u64,
        transports: Vec<Box<dyn Transport>>,
    ) -> Result<Self, CommsError> {
        cfg.method()?;
        let DistConfig { train, sparse_grads, recv_timeout } = cfg;
        assert_eq!(transports.len(), train.stages, "one transport per stage");
        let layout = RunLayout::new(model, &train, init_seed);
        // 64 steps of the driver's one `Step` span a step, as a worker's.
        let recorder = Arc::new(FlightRecorder::new(train.stages + 1, 64));
        let registry = Arc::new(MetricsRegistry::new());
        let mut links = Vec::with_capacity(train.stages);
        for (s, transport) in transports.into_iter().enumerate() {
            let sc = layout.stage_cfgs[s].clone();
            let mut link = handshake_worker(transport, sc, recv_timeout, recorder.as_ref())?;
            // Mirror this link's wire counters into live gauges so a
            // stats scrape sees per-stage traffic without touching the
            // links themselves.
            link.sender.bind_gauges(&registry, &format!("wire.stage{s}"));
            link.receiver.bind_gauges(&registry, &format!("wire.stage{s}"));
            let (lo, hi) = layout.partition.range(s);
            link.send(&Message::InitShard { params: layout.params[lo..hi].to_vec() })?;
            links.push(link);
        }
        let live = Arc::new(
            LiveStore::new("orchestrator", train.stages)
                .with_registry(Arc::clone(&registry))
                .with_events(Arc::clone(&recorder) as Arc<dyn EventSource + Send + Sync>),
        );
        let driver = StepDriver::new(train, layout, RemoteShards { links, sparse_grads });
        Ok(DistributedTrainer { model, driver, recorder, live, merged: Vec::new(), flush_seq: 0 })
    }

    /// The driver's live stats store (role `orchestrator`): driver-side
    /// step spans folded into per-stage activity plus `wire.stage{s}.*`
    /// traffic gauges. Hook it to a
    /// [`pipemare_telemetry::StatsEndpoint`] /
    /// [`pipemare_telemetry::StoreTicker`] to let `pm top` watch a run.
    pub fn live_store(&self) -> Arc<LiveStore> {
        Arc::clone(&self.live)
    }

    /// Per-stage handshake clock offsets (worker clock µs minus driver
    /// clock µs, one per link). `pm query` uses these — written as
    /// `OFFSET` files next to each worker's journal — to merge
    /// multi-process journals onto the driver timebase, the same
    /// convention `merge_worker_events` uses for traces.
    pub fn clock_offsets(&self) -> Vec<i64> {
        self.driver.access().links.iter().map(|l| l.offset_us).collect()
    }

    /// What each stage's worker was configured with at handshake, by
    /// stage — with [`crate::stage::plan`], everything needed to say
    /// what any read of the run returns.
    pub fn stage_configs(&self) -> &[StageConfig] {
        &self.driver.layout().stage_cfgs
    }

    /// `FetchShard` requests training steps have sent so far, over all
    /// stages — one per distinct content tag the driver did not hold.
    pub fn shard_fetches(&self) -> u64 {
        self.driver.shard_requests()
    }

    /// Drains every worker's telemetry and the driver's own and merges
    /// them into the combined trace (a streaming flush barrier): every
    /// `Flush` goes out before the first reply is read.
    fn flush_telemetry(&mut self) -> Result<(), CommsError> {
        self.flush_seq += 1;
        let id = self.flush_seq;
        let links = &mut self.driver.access_mut().links;
        for link in links.iter_mut() {
            link.send(&Message::Flush { id })?;
        }
        for link in links.iter_mut() {
            match link.recv_reply()? {
                Message::FlushAck { id: got, .. } if got == id => {}
                other => return Err(link.protocol("FlushAck", &other)),
            }
            self.merged.append(&mut link.shipped);
        }
        self.merged.extend(self.recorder.take().map_err(CommsError::Telemetry)?);
        Ok(())
    }

    /// Runs one optimizer step on a minibatch of `n_micro` microbatches.
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
    ) -> Result<StepStats, CommsError> {
        let was_diverged = self.driver.diverged();
        let span_t0 = self.recorder.now_us();
        let stats = self.driver.step(self.model, micro, micro_weights, |_| {})?;
        if was_diverged {
            return Ok(stats);
        }
        let (stages, t) = (self.driver.config().stages as u32, stats.step);
        let (trace, now) = (t as u64 + 1, self.recorder.now_us());
        self.recorder.record_span_traced(SpanKind::Step, stages, 0, t as u32, trace, span_t0, now);
        let flushed = self.flush_telemetry();
        if flushed.is_err() {
            self.driver.poison();
        }
        flushed.map(|()| stats)
    }

    /// Gathers the latest committed full parameter vector.
    pub fn gather_params(&mut self) -> Result<Vec<f32>, CommsError> {
        self.driver.check_usable()?;
        let step = self.driver.steps_done() as u64;
        let ranges = self.driver.layout().partition.ranges().to_vec();
        let mut out = vec![0.0f32; self.driver.layout().partition.total_params()];
        let links = &mut self.driver.access_mut().links;
        let got = gather_shards(links, &ranges, step, 0, PassKind::Latest, &mut out);
        if got.is_err() {
            self.driver.poison();
        }
        got.map(|()| out)
    }

    /// Shuts every worker down, collects their final telemetry, and
    /// returns the merged run report.
    pub fn shutdown(mut self) -> Result<DistRunReport, CommsError> {
        let links = &mut self.driver.access_mut().links;
        let mut worker_steps = Vec::with_capacity(links.len());
        for link in links.iter_mut() {
            link.send(&Message::Shutdown)?;
        }
        for link in links.iter_mut() {
            match link.recv_reply()? {
                Message::ShutdownAck { last_step, .. } => worker_steps.push(last_step),
                other => return Err(link.protocol("ShutdownAck", &other)),
            }
            self.merged.append(&mut link.shipped);
        }
        let mut events = self.merged;
        events.extend(self.recorder.take().map_err(CommsError::Telemetry)?);
        sort_events(&mut events);
        let mut sent = WireStats::default();
        let mut recv = WireStats::default();
        for link in links.iter() {
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
            crate::worker::run_stage_worker_opts(tx, rx, WorkerOptions::default())
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

/// What the token hub's reader threads deliver, by stage.
type FromWorkers = crossbeam_channel::Receiver<(u32, Result<Message, CommsError>)>;

/// One delivery from `stage`'s reader: a [`Message::Error`] the worker
/// sent before it stopped surfaces as [`CommsError::Remote`], a failed
/// link as [`CommsError::WorkerLost`].
fn from_worker(stage: u32, msg: Result<Message, CommsError>) -> Result<Message, CommsError> {
    match msg {
        Ok(Message::Error { message, .. }) => Err(CommsError::Remote { stage, message }),
        Ok(msg) => Ok(msg),
        Err(e) => Err(CommsError::WorkerLost { stage, last_acked_step: None, cause: Box::new(e) }),
    }
}

/// The error of a token run whose send to `stage` failed with `cause`: a
/// worker that stopped on an error of its own reported it before it hung
/// up, and its reader still delivers that report before the link's end.
fn hung_up(from: &FromWorkers, stage: u32, cause: CommsError) -> CommsError {
    for (_, msg) in from.iter().filter(|(s, _)| *s == stage) {
        match from_worker(stage, msg) {
            Err(report @ CommsError::Remote { .. }) => return report,
            Ok(Message::ShutdownAck { .. }) | Err(_) => break,
            Ok(_) => {}
        }
    }
    CommsError::WorkerLost { stage, last_acked_step: None, cause: Box::new(cause) }
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
/// remote workers. Each worker walks its row of the same
/// [`pipemare_pipeline::OpenPlan`] an in-process
/// [`pipemare_pipeline::run_pipeline`] of `method` would, so the hub only
/// routes tokens between neighbours and plays the lagged driver of
/// [`pipemare_pipeline::with_pipeline`]: it injects minibatch `j + 1` into
/// stage 0 once minibatch `j − d` has left it ([`OpenPlan::lag`]), timing
/// each GPipe wait as a `Flush`. Each minibatch that leaves stage 0 also
/// flushes every worker's telemetry into the merged trace, and a worker
/// ships its own whenever its ring is half full. A worker that stops on
/// an error fails the run with the [`CommsError::Remote`] it reported.
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
    // `with_pipeline`'s driver: minibatch j + 1 enters once minibatch j − d
    // has left stage 0, and with d = 0 (GPipe) each wait is a flush.
    let open = OpenPlan::new(method, RecomputePolicy::StashAll, stages, n_micro);
    let lag = open.lag();
    // The driver's ring holds the `Inject`s of the lag + 1 minibatches let
    // in before one leaves stage 0, when the hub takes it, and a `Flush`.
    let capacity = ((lag + 1) * n_micro).min(total) + 1;
    let recorder = FlightRecorder::new(stages + 1, capacity.next_power_of_two());
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
        senders[s].send(msg).map_err(|e| hung_up(&agg_rx, s as u32, e))
    };

    let start = Instant::now();
    let mut merged: Vec<TraceEvent> = Vec::new();
    let (mut injected, mut completed, mut flushes) = (0usize, 0usize, 0u64);
    let mut flush_start = recorder.now_us();
    while completed < total {
        while injected < total.min(open.inject_bound(completed, lag)) {
            send_to(&mut senders, 0, &Message::Token { backward: false, id: injected as u64 })?;
            recorder.record_instant(SpanKind::Inject, driver_track, 0, injected as u32);
            injected += 1;
        }
        let (stage, msg) = agg_rx.recv().map_err(|_| CommsError::Closed)?;
        match from_worker(stage, msg)? {
            Message::Token { backward: false, id } => {
                // A forward token leaving stage `stage` enters the next
                // stage (the last stage turns around internally and never
                // emits forward tokens).
                send_to(&mut senders, stage as usize + 1, &Message::Token { backward: false, id })?;
            }
            Message::Token { backward: true, id } => {
                if stage == 0 {
                    completed += 1;
                    if completed.is_multiple_of(n_micro) {
                        if lag == 0 {
                            recorder.record_span(
                                SpanKind::Flush,
                                driver_track,
                                0,
                                NO_MICROBATCH,
                                flush_start,
                                recorder.now_us(),
                            );
                            flush_start = recorder.now_us();
                        }
                        // A minibatch left: ship every ring's events, as
                        // the trainer does each step.
                        flushes += 1;
                        for s in 0..stages {
                            send_to(&mut senders, s, &Message::Flush { id: flushes })?;
                        }
                        merged.extend(recorder.take().map_err(CommsError::Telemetry)?);
                    }
                } else {
                    send_to(
                        &mut senders,
                        stage as usize - 1,
                        &Message::Token { backward: true, id },
                    )?;
                }
            }
            Message::Telemetry { jsonl, .. } => {
                merge_telemetry(&mut merged, stage, offsets[stage as usize], &jsonl)?
            }
            Message::FlushAck { .. } => {}
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
    let mut acked = vec![false; stages];
    while acked.iter().any(|&a| !a) {
        let (stage, msg) = agg_rx.recv().map_err(|_| CommsError::Closed)?;
        match from_worker(stage, msg)? {
            Message::Telemetry { jsonl, .. } => {
                merge_telemetry(&mut merged, stage, offsets[stage as usize], &jsonl)?
            }
            Message::ShutdownAck { .. } => acked[stage as usize] = true,
            // Stray tokens from a pipeline that was already drained, or a
            // late flush ack: ignore.
            _ => {}
        }
    }
    for h in reader_handles {
        let _ = h.join();
    }
    merged.extend(recorder.take().map_err(CommsError::Telemetry)?);
    sort_events(&mut merged);
    Ok(TokenPipelineReport {
        elapsed,
        microbatches: total,
        throughput: total as f64 / elapsed.as_secs_f64(),
        events: merged,
    })
}
