//! The stage-worker event loop: one pipeline stage driven entirely by
//! received messages.
//!
//! A worker is transport-agnostic — hand it the [`Sender`]/[`Receiver`]
//! halves of any [`crate::transport::Transport`] and it serves its
//! stage until the orchestrator says [`Message::Shutdown`]. Two modes:
//!
//! * **Training** (after [`Message::InitShard`]): the worker owns a
//!   [`ShardStage`] and answers shard fetches, gradient applications and
//!   commits — the same stage state the in-process trainer calls
//!   directly, served over the wire. A reply leaves, and a gradient
//!   arrives, as a run of [`SHARD_CHUNK`]-value frames; the worker
//!   encodes each reply chunk straight from the stored version into one
//!   chunk-sized frame and runs the optimizer over each gradient chunk's
//!   range as it arrives.
//! * **Token** (after [`Message::TokenMode`]): the worker runs its stage
//!   of the latency pipeline over the wire — the same per-stage op
//!   timeline and the same per-op function as the in-process executor's
//!   threads, so both record the same spans by construction.
//!
//! All trace events are recorded on the worker's own clock and shipped
//! back as JSONL in [`Message::Telemetry`] batches at every flush; the
//! orchestrator re-tracks and clock-shifts them into one merged trace.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pipemare_pipeline::{
    run_stage, ActivationLedger, Link, OpenPlan, RecomputePolicy, Sleep, StageLinks, StageOp, Token,
};
use pipemare_telemetry::{
    default_rules, events_to_jsonl_string, AlertEngine, EventSource, JournalConfig, JournalWriter,
    LiveStore, MetricsRegistry, Recorder, SpanKind, StatsEndpoint, StoreTicker, TraceRecorder,
};

use crate::codec::Writer;
use crate::error::CommsError;
use crate::protocol::{
    shard_chunks, Message, PassKind, ShardHead, StageConfig, PROTOCOL_VERSION, SHARD_CHUNK,
};
use crate::stage::ShardStage;
use crate::transport::{Receiver, Sender, WireStats};

/// What a finished worker did, for logs and tests.
#[derive(Clone, Copy, Debug)]
pub struct StageWorkerReport {
    /// The stage this worker served.
    pub stage: u32,
    /// Optimizer steps committed (0 in token mode).
    pub committed_steps: u64,
    /// Traffic sent to the orchestrator.
    pub sent: WireStats,
    /// Traffic received from the orchestrator.
    pub recv: WireStats,
}

/// Optional observability planes for [`run_stage_worker_opts`].
#[derive(Debug, Default)]
pub struct WorkerOptions {
    /// Bind a plain-TCP scrape endpoint here (e.g. `"127.0.0.1:0"`) and
    /// run the 250 ms background ticker so `pm top` can poll the worker.
    pub stats_addr: Option<String>,
    /// Append every background-ticker sample to a durable telemetry
    /// journal in this directory (created if absent), readable later
    /// with `pm query` even if this process is SIGKILLed mid-run.
    pub journal_dir: Option<PathBuf>,
}

/// Best-effort error report to the peer before surfacing the failure
/// locally; a dead link just drops the report.
fn fail(tx: &mut Sender, e: CommsError) -> CommsError {
    let _ = tx.send(&Message::Error { code: 0, message: e.to_string() });
    e
}

fn telemetry_batch(recorder: &TraceRecorder, stage: u32) -> Message {
    Message::Telemetry { stage, jsonl: events_to_jsonl_string(&recorder.take()) }
}

/// Serves one stage over an established link: handshake, then the
/// training or token loop, until shutdown or a fatal error.
///
/// The handshake validates protocol version and shard shapes; a
/// mismatch is reported to the orchestrator as [`Message::Error`] and
/// returned as [`CommsError::Handshake`].
///
/// The live-stats plane is always on: wire gauges, a [`LiveStore`] over
/// the worker's recorder answering in-band [`Message::StatsRequest`]s,
/// and the default alert rule pack, so scrapes (TCP or in-band) carry an
/// `alerts` array and transitions land on the flight track. With
/// [`WorkerOptions::stats_addr`] a plain-TCP scrape endpoint plus a
/// 250 ms background ticker let `pm top` and `nc` poll the worker while
/// it trains; with [`WorkerOptions::journal_dir`] the ticker's hook
/// appends every sample to an on-disk [`JournalWriter`].
pub fn run_stage_worker_opts(
    mut tx: Sender,
    mut rx: Receiver,
    opts: WorkerOptions,
) -> Result<StageWorkerReport, CommsError> {
    // --- Handshake -------------------------------------------------------
    let cfg = match rx.recv()? {
        Message::Hello(cfg) => cfg,
        other => {
            return Err(fail(
                &mut tx,
                CommsError::Protocol(format!("expected Hello, got {}", other.name())),
            ))
        }
    };
    if let Err(e) = ShardStage::validate(&cfg) {
        return Err(fail(&mut tx, e));
    }
    let stage_id = cfg.stage;
    // The recorder's origin is the worker's time zero; the HelloAck clock
    // sample below is on the same clock, so the orchestrator's offset
    // estimate maps every recorded event into driver time.
    let recorder = Arc::new(TraceRecorder::with_tracks(cfg.stages as usize + 1));
    let registry = Arc::new(MetricsRegistry::new());
    tx.bind_gauges(&registry, "wire.orchestrator");
    rx.bind_gauges(&registry, "wire.orchestrator");
    let store = Arc::new(
        LiveStore::new(&format!("worker-{stage_id}"), cfg.stages as usize)
            .with_registry(Arc::clone(&registry))
            .with_events(Arc::clone(&recorder) as Arc<dyn EventSource + Send + Sync>),
    );
    // Default alert pack: scrapes grow an `alerts` array and fire /
    // resolve instants land on the recorder's extra (driver) track, so
    // they ship home inside the normal telemetry batches.
    let engine = Arc::new(AlertEngine::new(default_rules()));
    engine.attach_recorder(Arc::clone(&recorder) as Arc<dyn Recorder + Send + Sync>, cfg.stages);
    store.attach_alerts(Arc::clone(&engine));
    // Endpoint + ticker (if enabled) live exactly as long as this call.
    let endpoint = match &opts.stats_addr {
        Some(addr) => Some(StatsEndpoint::bind(addr, Arc::clone(&store))?),
        None => None,
    };
    let journal = match &opts.journal_dir {
        Some(dir) => Some(JournalWriter::create(
            dir,
            &format!("worker-{stage_id}"),
            cfg.stages as usize,
            JournalConfig::default(),
        )?),
        None => None,
    };
    let ticker = match journal {
        Some(mut writer) => {
            let mut warned = false;
            Some(StoreTicker::spawn_with_hook(
                Arc::clone(&store),
                Duration::from_millis(250),
                move |sample| {
                    // Journal appends are best-effort: a full disk must
                    // not kill training.
                    if let Err(e) = writer.append(sample) {
                        if !warned {
                            eprintln!("worker-{stage_id}: journal append failed: {e}");
                            warned = true;
                        }
                    }
                },
            ))
        }
        None if endpoint.is_some() => {
            Some(StoreTicker::spawn(Arc::clone(&store), Duration::from_millis(250)))
        }
        None => None,
    };
    let _live = (endpoint, ticker);
    tx.send(&Message::HelloAck {
        protocol: PROTOCOL_VERSION,
        stage: stage_id,
        clock_us: recorder.now_us(),
    })?;

    // --- Mode dispatch ---------------------------------------------------
    match rx.recv()? {
        Message::InitShard { params } => {
            let stage = match ShardStage::new(cfg, params) {
                Ok(s) => s,
                Err(e) => return Err(fail(&mut tx, e)),
            };
            run_training_loop(stage, &recorder, &store, tx, rx)
        }
        Message::TokenMode { total, is_last, work_us } => {
            run_token_loop(&cfg, total, is_last, work_us, &recorder, &store, tx, rx)
        }
        other => Err(fail(
            &mut tx,
            CommsError::Protocol(format!("expected InitShard or TokenMode, got {}", other.name())),
        )),
    }
}

/// Answers one in-band stats scrape with a fresh sample (the worker has
/// no background ticker unless the TCP endpoint is on).
fn answer_stats(store: &LiveStore, id: u64, tx: &mut Sender) -> Result<(), CommsError> {
    tx.send(&Message::StatsReply { id, frame: store.scrape_fresh()? })
}

fn run_training_loop(
    mut stage: ShardStage,
    recorder: &TraceRecorder,
    store: &LiveStore,
    mut tx: Sender,
    mut rx: Receiver,
) -> Result<StageWorkerReport, CommsError> {
    let stage_id = stage.stage();
    let mut step_t0 = 0;
    loop {
        let msg = rx.recv()?;
        // While a gradient is part way in, only its next chunk may come.
        let filled = stage.grad_filled();
        if filled > 0 && !matches!(msg, Message::GradShard { .. }) {
            let (name, len) = (msg.name(), stage.len());
            let what = format!("stage {stage_id}: {name} while a gradient is {filled} of {len} in");
            return Err(fail(&mut tx, CommsError::Protocol(what)));
        }
        match msg {
            Message::FetchShard { step, micro, pass } => {
                let t0 = recorder.now_us();
                // The microbatch's causal trace id (0-based id, trace 0
                // means "absent") — stamped on the local span and on
                // every Shard chunk so merged traces keep the chain.
                let trace = micro as u64 + 1;
                let head = ShardHead { step, micro, pass, stage: stage_id, trace };
                // One chunk-sized frame per reply: each chunk is encoded
                // straight from the weight history into it and sent.
                let mut frame = Vec::new();
                for range in shard_chunks(stage.len()) {
                    let built = Writer::refill(&mut frame, |w| {
                        head.encode(w);
                        stage.encode_fetch(step, micro, pass, range, w)
                    });
                    if let Err(e) = built {
                        return Err(fail(&mut tx, e));
                    }
                    tx.send_frame(&frame)?;
                }
                let t1 = recorder.now_us();
                let kind = match pass {
                    PassKind::Fwd => Some(SpanKind::Forward),
                    PassKind::Bkwd => Some(SpanKind::Backward),
                    PassKind::Recomp => Some(SpanKind::Recompute),
                    PassKind::Latest => None,
                };
                if let Some(kind) = kind {
                    recorder.record_span_traced(kind, stage_id, stage_id, micro, trace, t0, t1);
                }
            }
            Message::GradShard { step, lr, apply, trace, data } => {
                // Each chunk is applied to its range before the next
                // arrives; the k-th covers the k-th `SHARD_CHUNK` values.
                let due = SHARD_CHUNK.min(stage.len() - filled);
                if data.dense_len() != due {
                    let got = data.dense_len();
                    let what =
                        format!("stage {stage_id}: gradient chunk of {got} values, {due} due");
                    return Err(fail(&mut tx, CommsError::Protocol(what)));
                }
                if filled == 0 {
                    step_t0 = recorder.now_us();
                }
                let (sq_norm, finite) = match stage.stage_grad(step, lr, apply, &data.into_dense())
                {
                    Ok(Some(staged)) => staged,
                    Ok(None) => continue,
                    Err(e) => return Err(fail(&mut tx, e)),
                };
                recorder.record_span_traced(
                    SpanKind::Step,
                    stage_id,
                    stage_id,
                    step as u32,
                    trace,
                    step_t0,
                    recorder.now_us(),
                );
                tx.send(&Message::StepAck { step, stage: stage_id, sq_norm, finite })?;
            }
            Message::StatsRequest { id } => answer_stats(store, id, &mut tx)?,
            Message::Commit { step, keep } => {
                let sq_norm = match stage.commit(step, keep) {
                    Ok(n) => n,
                    Err(e) => return Err(fail(&mut tx, e)),
                };
                tx.send(&Message::CommitAck { step, stage: stage_id, sq_norm })?;
            }
            Message::Flush { id } => {
                tx.send(&telemetry_batch(recorder, stage_id))?;
                tx.send(&Message::FlushAck { id, last_step: stage.committed_steps() })?;
            }
            Message::Shutdown => {
                tx.send(&telemetry_batch(recorder, stage_id))?;
                tx.send(&Message::ShutdownAck {
                    stage: stage_id,
                    last_step: stage.committed_steps(),
                })?;
                return Ok(StageWorkerReport {
                    stage: stage_id,
                    committed_steps: stage.committed_steps(),
                    sent: tx.stats(),
                    recv: rx.stats(),
                });
            }
            Message::Error { message, .. } => {
                return Err(CommsError::Remote { stage: u32::MAX, message })
            }
            other => {
                return Err(fail(
                    &mut tx,
                    CommsError::Protocol(format!("unexpected {} in training loop", other.name())),
                ))
            }
        }
    }
}

/// Most microbatch tokens a [`Message::TokenMode`] may announce: the
/// count arrives from the peer and bounds the tokens a stage buffers.
pub const MAX_TOKENS: u64 = 1 << 16;
/// Longest per-op work, in µs, a [`Message::TokenMode`] may make a stage sleep.
const MAX_WORK_US: u64 = 1_000_000;

/// Runs this stage's share of a latency pipeline over the wire: the stage
/// loop of a [`pipemare_pipeline::run_pipeline`] thread ([`run_stage`],
/// same op order and spans) over a [`Sleep`], on this stage's row of the
/// [`OpenPlan`] its handshake config names, with the hub routing
/// [`Message::Token`]s between neighbours in place of channels. The
/// stream ends after the `total` tokens the handshake announced.
#[allow(clippy::too_many_arguments)]
fn run_token_loop(
    cfg: &StageConfig,
    total: u64,
    is_last: bool,
    work_us: u64,
    recorder: &TraceRecorder,
    store: &LiveStore,
    mut tx: Sender,
    rx: Receiver,
) -> Result<StageWorkerReport, CommsError> {
    let (stage, stages) = (cfg.stage as usize, cfg.stages as usize);
    let n_micro = cfg.n_micro as u64;
    if total == 0
        || total > MAX_TOKENS
        || !total.is_multiple_of(n_micro)
        || is_last != (stage + 1 == stages)
        || work_us > MAX_WORK_US
    {
        let what = format!(
            "token total {total} (is_last {is_last}, {work_us} us) does not fit stage {stage} of \
             {stages}, {n_micro} per minibatch (limits {MAX_TOKENS} tokens, {MAX_WORK_US} us)"
        );
        return Err(fail(&mut tx, CommsError::Protocol(what)));
    }
    let plan = OpenPlan::new(cfg.method, RecomputePolicy::StashAll, stages, n_micro as usize);
    let mut wire =
        Wire { stage: cfg.stage, total, recorder, store, tx, rx, early: Default::default() };
    let mut work = Sleep(Duration::from_micros(work_us));
    let ledger = ActivationLedger::new(stages, 1);
    match run_stage(&plan, stage, &mut work, recorder, &ledger, &mut wire) {
        // All microbatches done: answer control messages until shutdown.
        Ok(()) => loop {
            let msg = wire.rx.recv()?;
            if wire.control(msg)? {
                break;
            }
        },
        Err(Some(e)) => return Err(e),
        Err(None) => {}
    }
    let (sent, recv) = (wire.tx.stats(), wire.rx.stats());
    Ok(StageWorkerReport { stage: cfg.stage, committed_steps: 0, sent, recv })
}

/// A token worker's links: [`Message::Token`]s through the hub. A token
/// that arrives before the op that consumes it is buffered; control
/// messages are answered while the stage waits.
struct Wire<'a> {
    stage: u32,
    total: u64,
    recorder: &'a TraceRecorder,
    store: &'a LiveStore,
    tx: Sender,
    rx: Receiver,
    /// Tokens that arrived ahead of the op that consumes them, per link.
    early: [VecDeque<u64>; Link::ALL.len()],
}

impl Wire<'_> {
    /// Answers one non-token message of a token run; `true` once it was
    /// [`Message::Shutdown`] (also mid-run, when the orchestrator aborts)
    /// and has been acknowledged.
    fn control(&mut self, msg: Message) -> Result<bool, CommsError> {
        match msg {
            Message::Flush { id } => {
                self.tx.send(&telemetry_batch(self.recorder, self.stage))?;
                self.tx.send(&Message::FlushAck { id, last_step: 0 })?;
            }
            Message::StatsRequest { id } => answer_stats(self.store, id, &mut self.tx)?,
            Message::Shutdown => {
                self.tx.send(&telemetry_batch(self.recorder, self.stage))?;
                self.tx.send(&Message::ShutdownAck { stage: self.stage, last_step: 0 })?;
                return Ok(true);
            }
            other => {
                let what = format!("unexpected {} in token mode", other.name());
                return Err(fail(&mut self.tx, CommsError::Protocol(what)));
            }
        }
        Ok(false)
    }
}

impl StageLinks<()> for Wire<'_> {
    /// `None`: the orchestrator aborted the run, and the shutdown was acknowledged.
    type Error = Option<CommsError>;

    fn recv(&mut self, link: Link, op: &StageOp) -> Result<Token<()>, Self::Error> {
        // Every stage knows from the handshake where the stream ends.
        if link == Link::Fwd && op.micro as u64 == self.total {
            return Ok(Token::End);
        }
        let id = loop {
            if let Some(id) = self.early[link as usize].pop_front() {
                break id;
            }
            match self.rx.recv()? {
                Message::Token { backward, id } => {
                    let queue = &mut self.early[backward as usize];
                    if queue.len() as u64 >= self.total {
                        let what = format!("more than {} tokens ahead of their ops", self.total);
                        return Err(fail(&mut self.tx, CommsError::Protocol(what)).into());
                    }
                    queue.push_back(id);
                }
                other => {
                    if self.control(other)? {
                        return Err(None);
                    }
                }
            }
        };
        if id != op.micro as u64 {
            let what = format!("{link:?} token {id} where microbatch {} is due", op.micro);
            return Err(fail(&mut self.tx, CommsError::Protocol(what)).into());
        }
        Ok(Token::Micro(op.micro, None))
    }

    fn send(&mut self, link: Link, token: Token<()>) -> Result<(), Self::Error> {
        // Only microbatches cross the wire: the peers know where the stream ends.
        if let Token::Micro(id, _) = token {
            self.tx.send(&Message::Token { backward: link == Link::Bkwd, id: id as u64 })?;
        }
        Ok(())
    }
}
