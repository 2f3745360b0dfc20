//! Message taxonomy and the framed encode/decode entry points.
//!
//! Every message is one frame: a `u32` LE length prefix (added by the
//! transport) around a payload whose first byte is the message tag.
//! [`PROTOCOL_VERSION`] travels in the handshake ([`Message::Hello`] /
//! [`Message::HelloAck`]); a version or shape mismatch is rejected
//! before any training traffic flows.
//!
//! The two frames that carry a weight shard have a borrowing form next
//! to their [`Message`] variant: [`ShardHead`] / [`GradHead`] write the
//! fixed-size head and leave the tensor to the caller (encoded straight
//! from wherever the values live), and [`decode_shard_into`] lands a
//! shard's tensor in a buffer the caller keeps. [`encode_message`] and
//! [`decode_message`] go through the same heads, so both forms are one
//! encoding.
//!
//! # Chunked shard tensors (v5)
//!
//! On the training-step path a shard's tensor — a fetch's reply, a
//! step's gradient — crosses as an ordered run of ordinary `Shard` /
//! `GradShard` frames of at most [`SHARD_CHUNK`] values each, every
//! frame carrying the full head. No frame names its offset: both ends
//! know the shard's length, and [`shard_chunks`] cuts it the same way on
//! both, so the k-th frame of a run is the k-th chunk. The receiver
//! applies each chunk as it arrives — the driver decodes a reply chunk
//! straight into its slice of the destination, a worker runs the
//! optimizer over a gradient chunk's range — so neither end ever holds
//! a whole-shard frame, reply buffer or decoded copy. The handshake's
//! `InitShard` and checkpoints, which run once per run, keep
//! whole-shard frames.

use crate::codec::{Reader, TensorPayload, Writer};
use crate::error::CodecError;
use pipemare_optim::OptimizerKind;
use pipemare_pipeline::Method;
use pipemare_tensor::StoragePrecision;

/// Wire protocol version, validated during the hello exchange.
/// v2 added the weight-storage precision to [`StageConfig`] and the
/// bf16 dense tensor payload; v3 added the inference serving triplet
/// ([`Message::Infer`] / [`Message::InferResult`] /
/// [`Message::InferReject`]); v4 added causal trace ids on
/// [`Message::Infer`] / [`Message::Shard`] / [`Message::GradShard`]
/// and the live stats scrape pair ([`Message::StatsRequest`] /
/// [`Message::StatsReply`]); v5 sends every training-step shard tensor
/// as a run of [`SHARD_CHUNK`]-value frames (a v4 peer sends one frame
/// per tensor, so the handshake refuses it); v6 carries the stats scrape
/// as its binary frame instead of a JSON line.
pub const PROTOCOL_VERSION: u16 = 6;

/// Most values one `Shard` or `GradShard` frame of the training-step
/// path carries: 256 KiB dense. A fixed part of the protocol, not an
/// option — both ends cut a shard with [`shard_chunks`] and must agree.
pub const SHARD_CHUNK: usize = 65_536;

/// The chunks a shard of `len` values crosses the wire in, in order:
/// consecutive [`SHARD_CHUNK`]-value ranges, the last one ragged.
pub fn shard_chunks(len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..len.div_ceil(SHARD_CHUNK)).map(move |k| k * SHARD_CHUNK..len.min((k + 1) * SHARD_CHUNK))
}

/// Which pass a shard fetch serves. Determines the weight-version and
/// T2-correction math the worker applies before replying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// Forward pass: delayed version per the pipeline clock.
    Fwd,
    /// Backward pass: bkwd version plus T2 discrepancy correction.
    Bkwd,
    /// Recompute replay: recompute-slot version plus its T2 term.
    Recomp,
    /// Latest committed weights, uncorrected (final gather).
    Latest,
}

impl PassKind {
    fn to_wire(self) -> u8 {
        match self {
            PassKind::Fwd => 0,
            PassKind::Bkwd => 1,
            PassKind::Recomp => 2,
            PassKind::Latest => 3,
        }
    }

    fn from_wire(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(PassKind::Fwd),
            1 => Ok(PassKind::Bkwd),
            2 => Ok(PassKind::Recomp),
            3 => Ok(PassKind::Latest),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// Why a serving frontend refused an [`Message::Infer`] request.
/// Travels in [`Message::InferReject`] so clients can tell back-off
/// signals (shed) apart from caller bugs (invalid) and server faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission queue full: the request was shed. Retry with back-off.
    QueueFull,
    /// Server is draining for shutdown; no new work accepted.
    Draining,
    /// Malformed request (bad shape or empty batch). Do not retry.
    Invalid,
    /// Serving backend failed (e.g. a lost stage worker); the request
    /// was accepted but cannot be served.
    Backend,
}

impl RejectReason {
    fn to_wire(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::Draining => 1,
            RejectReason::Invalid => 2,
            RejectReason::Backend => 3,
        }
    }

    fn from_wire(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(RejectReason::QueueFull),
            1 => Ok(RejectReason::Draining),
            2 => Ok(RejectReason::Invalid),
            3 => Ok(RejectReason::Backend),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Short name for diagnostics and stats keys.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::Draining => "draining",
            RejectReason::Invalid => "invalid",
            RejectReason::Backend => "backend",
        }
    }
}

fn method_to_wire(m: Method) -> u8 {
    match m {
        Method::GPipe => 0,
        Method::PipeDream => 1,
        Method::PipeMare => 2,
    }
}

fn method_from_wire(b: u8) -> Result<Method, CodecError> {
    match b {
        0 => Ok(Method::GPipe),
        1 => Ok(Method::PipeDream),
        2 => Ok(Method::PipeMare),
        t => Err(CodecError::BadTag(t)),
    }
}

fn optimizer_encode(w: &mut Writer, kind: OptimizerKind) {
    match kind {
        OptimizerKind::Sgd { weight_decay } => {
            w.put_u8(0);
            w.put_f32(weight_decay);
        }
        OptimizerKind::Momentum { beta, weight_decay } => {
            w.put_u8(1);
            w.put_f32(beta);
            w.put_f32(weight_decay);
        }
        OptimizerKind::Adam { beta1, beta2, eps } => {
            w.put_u8(2);
            w.put_f32(beta1);
            w.put_f32(beta2);
            w.put_f32(eps);
        }
        OptimizerKind::AdamW { beta1, beta2, eps, weight_decay } => {
            w.put_u8(3);
            w.put_f32(beta1);
            w.put_f32(beta2);
            w.put_f32(eps);
            w.put_f32(weight_decay);
        }
    }
}

fn optimizer_decode(r: &mut Reader<'_>) -> Result<OptimizerKind, CodecError> {
    match r.get_u8()? {
        0 => Ok(OptimizerKind::Sgd { weight_decay: r.get_f32()? }),
        1 => Ok(OptimizerKind::Momentum { beta: r.get_f32()?, weight_decay: r.get_f32()? }),
        2 => {
            Ok(OptimizerKind::Adam { beta1: r.get_f32()?, beta2: r.get_f32()?, eps: r.get_f32()? })
        }
        3 => Ok(OptimizerKind::AdamW {
            beta1: r.get_f32()?,
            beta2: r.get_f32()?,
            eps: r.get_f32()?,
            weight_decay: r.get_f32()?,
        }),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Everything a stage worker needs to serve its weight shard: pipeline
/// geometry, shard bounds, optimizer, and the PipeMare T2/recompute
/// parameters precomputed by the orchestrator.
#[derive(Clone, Debug, PartialEq)]
pub struct StageConfig {
    /// Must equal [`PROTOCOL_VERSION`].
    pub protocol: u16,
    /// This worker's stage id, `0..stages`.
    pub stage: u32,
    /// Total pipeline stages.
    pub stages: u32,
    /// Microbatches per minibatch.
    pub n_micro: u32,
    /// Pipeline scheduling method.
    pub method: Method,
    /// Full model parameter count (for shape validation).
    pub param_len: u64,
    /// Shard start offset into the full parameter vector.
    pub shard_lo: u64,
    /// Shard end offset (exclusive).
    pub shard_hi: u64,
    /// Optimizer run on this shard.
    pub opt: OptimizerKind,
    /// T2 decay `d` (None disables discrepancy correction).
    pub t2_decay: Option<f64>,
    /// Precomputed per-stage γ for the δ velocity buffer.
    pub gamma: f64,
    /// Recompute delay slots for this stage (None = no recomputation).
    pub recomp_slots: Option<u32>,
    /// Whether recompute replay applies its own T2 term.
    pub recomp_t2: bool,
    /// Steps of synchronous warmup (T3).
    pub warmup_steps: u64,
    /// Storage precision of the worker's non-latest weight-history
    /// versions. Under bf16 the worker also replies to delayed fetches
    /// with the stored bf16 bits verbatim (half the wire bytes, zero
    /// added error).
    pub weight_storage: StoragePrecision,
}

fn precision_to_wire(p: StoragePrecision) -> u8 {
    match p {
        StoragePrecision::F32 => 0,
        StoragePrecision::Bf16 => 1,
    }
}

fn precision_from_wire(b: u8) -> Result<StoragePrecision, CodecError> {
    match b {
        0 => Ok(StoragePrecision::F32),
        1 => Ok(StoragePrecision::Bf16),
        t => Err(CodecError::BadTag(t)),
    }
}

impl StageConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.protocol);
        w.put_u32(self.stage);
        w.put_u32(self.stages);
        w.put_u32(self.n_micro);
        w.put_u8(method_to_wire(self.method));
        w.put_u64(self.param_len);
        w.put_u64(self.shard_lo);
        w.put_u64(self.shard_hi);
        optimizer_encode(w, self.opt);
        w.put_opt_f64(self.t2_decay);
        w.put_f64(self.gamma);
        w.put_opt_u32(self.recomp_slots);
        w.put_bool(self.recomp_t2);
        w.put_u64(self.warmup_steps);
        w.put_u8(precision_to_wire(self.weight_storage));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(StageConfig {
            protocol: r.get_u16()?,
            stage: r.get_u32()?,
            stages: r.get_u32()?,
            n_micro: r.get_u32()?,
            method: method_from_wire(r.get_u8()?)?,
            param_len: r.get_u64()?,
            shard_lo: r.get_u64()?,
            shard_hi: r.get_u64()?,
            opt: optimizer_decode(r)?,
            t2_decay: r.get_opt_f64()?,
            gamma: r.get_f64()?,
            recomp_slots: r.get_opt_u32()?,
            recomp_t2: r.get_bool()?,
            warmup_steps: r.get_u64()?,
            weight_storage: precision_from_wire(r.get_u8()?)?,
        })
    }
}

/// Everything in a [`Message::Shard`] frame but the tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHead {
    /// Echoed step.
    pub step: u64,
    /// Echoed microbatch index.
    pub micro: u32,
    /// Echoed pass kind.
    pub pass: PassKind,
    /// Worker's stage id.
    pub stage: u32,
    /// Causal trace id (`0` = none).
    pub trace: u64,
}

impl ShardHead {
    /// Starts a `Shard` frame in `w`: tag and head. The caller appends
    /// the tensor ([`TensorPayload::encode`],
    /// [`crate::codec::encode_dense`], ...) to complete it.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_SHARD);
        w.put_u64(self.step);
        w.put_u32(self.micro);
        w.put_u8(self.pass.to_wire());
        w.put_u32(self.stage);
        w.put_u64(self.trace);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ShardHead {
            step: r.get_u64()?,
            micro: r.get_u32()?,
            pass: PassKind::from_wire(r.get_u8()?)?,
            stage: r.get_u32()?,
            trace: r.get_u64()?,
        })
    }
}

/// Everything in a [`Message::GradShard`] frame but the tensor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradHead {
    /// Step being stepped.
    pub step: u64,
    /// Effective LR (base schedule × T1 rescale).
    pub lr: f32,
    /// Whether to run the optimizer (false on non-finite grads).
    pub apply: bool,
    /// Causal trace id (`0` = none).
    pub trace: u64,
}

impl GradHead {
    /// Starts a `GradShard` frame in `w`: tag and head. The caller
    /// appends the tensor to complete it.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_GRAD_SHARD);
        w.put_u64(self.step);
        w.put_f32(self.lr);
        w.put_bool(self.apply);
        w.put_u64(self.trace);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GradHead {
            step: r.get_u64()?,
            lr: r.get_f32()?,
            apply: r.get_bool()?,
            trace: r.get_u64()?,
        })
    }
}

/// Decodes a [`Message::Shard`] frame, writing its tensor straight into
/// `dst` (see [`TensorPayload::decode_into`]). `Ok(None)` means the
/// frame is some other message and `dst` is untouched — hand the
/// payload to [`decode_message`].
///
/// # Errors
///
/// As [`decode_message`], plus [`CodecError::LengthMismatch`] when the
/// tensor is not `dst.len()` long. On an error `dst` may be partly
/// overwritten.
pub fn decode_shard_into(payload: &[u8], dst: &mut [f32]) -> Result<Option<ShardHead>, CodecError> {
    if payload.first() != Some(&TAG_SHARD) {
        return Ok(None);
    }
    let mut r = Reader::new(&payload[1..]);
    let head = ShardHead::decode(&mut r)?;
    TensorPayload::decode_into(&mut r, dst)?;
    r.finish()?;
    Ok(Some(head))
}

/// Every message that can cross a comms link.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Orchestrator → worker: handshake with full stage configuration.
    Hello(StageConfig),
    /// Worker → orchestrator: handshake accept, carrying the worker's
    /// monotonic clock reading for NTP-lite offset estimation.
    HelloAck {
        /// Worker's protocol version.
        protocol: u16,
        /// Echoed stage id.
        stage: u32,
        /// Worker-local microsecond clock at ack time.
        clock_us: u64,
    },
    /// Orchestrator → worker: initial weight shard (seeds version 0).
    InitShard {
        /// Dense shard values.
        params: Vec<f32>,
    },
    /// Orchestrator → worker: request the shard for one pass.
    FetchShard {
        /// Training step the pass belongs to.
        step: u64,
        /// Microbatch index within the step.
        micro: u32,
        /// Which pass (selects the version/correction math).
        pass: PassKind,
    },
    /// Worker → orchestrator: the requested shard.
    Shard {
        /// Echoed step.
        step: u64,
        /// Echoed microbatch index.
        micro: u32,
        /// Echoed pass kind.
        pass: PassKind,
        /// Worker's stage id.
        stage: u32,
        /// Causal trace id of the microbatch this pass belongs to
        /// (`0` = none), stamped on the worker's compute span.
        trace: u64,
        /// Shard values (dense or sparse per the link's mode).
        data: TensorPayload,
    },
    /// Orchestrator → worker: accumulated gradient for this shard plus
    /// the effective learning rate; `apply=false` stages the old weights
    /// unchanged (non-finite gradient path).
    GradShard {
        /// Step being stepped.
        step: u64,
        /// Effective LR (base schedule × T1 rescale).
        lr: f32,
        /// Whether to run the optimizer (false on non-finite grads).
        apply: bool,
        /// Causal trace id of the minibatch driving this step (`0` =
        /// none), stamped on the worker's Step span.
        trace: u64,
        /// Gradient values for this shard.
        data: TensorPayload,
    },
    /// Worker → orchestrator: optimizer-step vote.
    StepAck {
        /// Echoed step.
        step: u64,
        /// Worker's stage id.
        stage: u32,
        /// Σx² of the staged (post-step) shard, f64.
        sq_norm: f64,
        /// Whether every staged value is finite.
        finite: bool,
    },
    /// Orchestrator → worker: commit or revert the staged step.
    Commit {
        /// Step being committed.
        step: u64,
        /// true = keep staged weights; false = revert (divergence).
        keep: bool,
    },
    /// Worker → orchestrator: commit done.
    CommitAck {
        /// Echoed step.
        step: u64,
        /// Worker's stage id.
        stage: u32,
        /// Σx² of the committed shard.
        sq_norm: f64,
    },
    /// Orchestrator → worker: barrier + telemetry drain request.
    Flush {
        /// Barrier id, echoed in the ack.
        id: u64,
    },
    /// Worker → orchestrator: barrier reached.
    FlushAck {
        /// Echoed barrier id.
        id: u64,
        /// Highest step this worker has committed.
        last_step: u64,
    },
    /// Worker → orchestrator: trace events as JSONL, on a flush or unasked.
    Telemetry {
        /// Worker's stage id.
        stage: u32,
        /// Newline-separated trace-event JSON lines (may be empty).
        jsonl: String,
    },
    /// Orchestrator → worker: finish up and exit after acking.
    Shutdown,
    /// Worker → orchestrator: final ack before the link closes.
    ShutdownAck {
        /// Worker's stage id.
        stage: u32,
        /// Highest step this worker committed.
        last_step: u64,
    },
    /// Token-mode payload standing in for an activation (fwd) or
    /// gradient (bkwd) in latency-shaped pipeline simulations.
    Token {
        /// false = forward activation, true = backward gradient.
        backward: bool,
        /// Microbatch id the token belongs to.
        id: u64,
    },
    /// Orchestrator → worker: enter token mode with this workload shape.
    TokenMode {
        /// Total microbatch tokens this stage will see.
        total: u64,
        /// Whether this is the last stage (turns tokens around).
        is_last: bool,
        /// Simulated per-pass busy-work duration, microseconds.
        work_us: u64,
    },
    /// Either direction: a fatal error description before closing.
    Error {
        /// Numeric error code (reserved; 0 = unspecified).
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Client → server: one inference request, a row-major `[rows,
    /// cols]` input batch. `id` is client-chosen and echoed in the
    /// reply so requests can be pipelined on one connection.
    Infer {
        /// Client-chosen request id, echoed in the reply.
        id: u64,
        /// Causal trace id propagated onto every span this request
        /// touches server-side (`0` = none; clients default to a
        /// nonzero id so `pm trace path` works out of the box).
        trace: u64,
        /// Input rows (samples) in this request.
        rows: u32,
        /// Input features per row.
        cols: u32,
        /// Row-major input values, `rows * cols` long.
        data: TensorPayload,
    },
    /// Server → client: the `[rows, cols]` output batch for request
    /// `id` (one output row per input row).
    InferResult {
        /// Echoed request id.
        id: u64,
        /// Output rows (equals the request's input rows).
        rows: u32,
        /// Output features per row.
        cols: u32,
        /// Row-major output values.
        data: TensorPayload,
    },
    /// Server → client: request `id` was refused — shed by admission
    /// control, rejected as malformed, or failed by the backend.
    InferReject {
        /// Echoed request id.
        id: u64,
        /// Typed refusal cause.
        reason: RejectReason,
        /// Human-readable detail (e.g. the backend error).
        message: String,
    },
    /// Either direction: ask the peer for a snapshot of its live stats
    /// (see `pipemare_telemetry::scrape`), sampled on demand — never
    /// blocking the peer's hot path.
    StatsRequest {
        /// Caller-chosen id, echoed in the reply.
        id: u64,
    },
    /// Reply to [`Message::StatsRequest`]: the snapshot as the
    /// `pipemare_telemetry::Scrape` frame the plain-TCP stats endpoint
    /// writes (layout in DESIGN §6.9).
    StatsReply {
        /// Echoed request id.
        id: u64,
        /// The scrape frame; read it with `Scrape::decode`.
        frame: Vec<u8>,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
const TAG_INIT_SHARD: u8 = 2;
const TAG_FETCH_SHARD: u8 = 3;
const TAG_SHARD: u8 = 4;
const TAG_GRAD_SHARD: u8 = 5;
const TAG_STEP_ACK: u8 = 6;
const TAG_COMMIT: u8 = 7;
const TAG_COMMIT_ACK: u8 = 8;
const TAG_FLUSH: u8 = 9;
const TAG_FLUSH_ACK: u8 = 10;
const TAG_TELEMETRY: u8 = 11;
const TAG_SHUTDOWN: u8 = 12;
const TAG_SHUTDOWN_ACK: u8 = 13;
const TAG_TOKEN: u8 = 14;
const TAG_TOKEN_MODE: u8 = 15;
const TAG_ERROR: u8 = 16;
const TAG_INFER: u8 = 17;
const TAG_INFER_RESULT: u8 = 18;
const TAG_INFER_REJECT: u8 = 19;
const TAG_STATS_REQUEST: u8 = 20;
const TAG_STATS_REPLY: u8 = 21;

impl Message {
    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello(_) => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::InitShard { .. } => "InitShard",
            Message::FetchShard { .. } => "FetchShard",
            Message::Shard { .. } => "Shard",
            Message::GradShard { .. } => "GradShard",
            Message::StepAck { .. } => "StepAck",
            Message::Commit { .. } => "Commit",
            Message::CommitAck { .. } => "CommitAck",
            Message::Flush { .. } => "Flush",
            Message::FlushAck { .. } => "FlushAck",
            Message::Telemetry { .. } => "Telemetry",
            Message::Shutdown => "Shutdown",
            Message::ShutdownAck { .. } => "ShutdownAck",
            Message::Token { .. } => "Token",
            Message::TokenMode { .. } => "TokenMode",
            Message::Error { .. } => "Error",
            Message::Infer { .. } => "Infer",
            Message::InferResult { .. } => "InferResult",
            Message::InferReject { .. } => "InferReject",
            Message::StatsRequest { .. } => "StatsRequest",
            Message::StatsReply { .. } => "StatsReply",
        }
    }
}

/// Encodes a message into a frame payload (no length prefix).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut w = Writer::new();
    // One allocation for the frames that carry a tensor; the rest are
    // tens of bytes.
    w.reserve(match msg {
        Message::InitShard { params } => 8 + 4 * params.len(),
        Message::Shard { data, .. }
        | Message::GradShard { data, .. }
        | Message::Infer { data, .. }
        | Message::InferResult { data, .. } => 32 + data.wire_bytes(),
        _ => 0,
    });
    match msg {
        Message::Hello(cfg) => {
            w.put_u8(TAG_HELLO);
            cfg.encode(&mut w);
        }
        Message::HelloAck { protocol, stage, clock_us } => {
            w.put_u8(TAG_HELLO_ACK);
            w.put_u16(*protocol);
            w.put_u32(*stage);
            w.put_u64(*clock_us);
        }
        Message::InitShard { params } => {
            w.put_u8(TAG_INIT_SHARD);
            w.put_f32s(params);
        }
        Message::FetchShard { step, micro, pass } => {
            w.put_u8(TAG_FETCH_SHARD);
            w.put_u64(*step);
            w.put_u32(*micro);
            w.put_u8(pass.to_wire());
        }
        Message::Shard { step, micro, pass, stage, trace, data } => {
            let head =
                ShardHead { step: *step, micro: *micro, pass: *pass, stage: *stage, trace: *trace };
            head.encode(&mut w);
            data.encode(&mut w);
        }
        Message::GradShard { step, lr, apply, trace, data } => {
            GradHead { step: *step, lr: *lr, apply: *apply, trace: *trace }.encode(&mut w);
            data.encode(&mut w);
        }
        Message::StepAck { step, stage, sq_norm, finite } => {
            w.put_u8(TAG_STEP_ACK);
            w.put_u64(*step);
            w.put_u32(*stage);
            w.put_f64(*sq_norm);
            w.put_bool(*finite);
        }
        Message::Commit { step, keep } => {
            w.put_u8(TAG_COMMIT);
            w.put_u64(*step);
            w.put_bool(*keep);
        }
        Message::CommitAck { step, stage, sq_norm } => {
            w.put_u8(TAG_COMMIT_ACK);
            w.put_u64(*step);
            w.put_u32(*stage);
            w.put_f64(*sq_norm);
        }
        Message::Flush { id } => {
            w.put_u8(TAG_FLUSH);
            w.put_u64(*id);
        }
        Message::FlushAck { id, last_step } => {
            w.put_u8(TAG_FLUSH_ACK);
            w.put_u64(*id);
            w.put_u64(*last_step);
        }
        Message::Telemetry { stage, jsonl } => {
            w.put_u8(TAG_TELEMETRY);
            w.put_u32(*stage);
            w.put_str(jsonl);
        }
        Message::Shutdown => w.put_u8(TAG_SHUTDOWN),
        Message::ShutdownAck { stage, last_step } => {
            w.put_u8(TAG_SHUTDOWN_ACK);
            w.put_u32(*stage);
            w.put_u64(*last_step);
        }
        Message::Token { backward, id } => {
            w.put_u8(TAG_TOKEN);
            w.put_bool(*backward);
            w.put_u64(*id);
        }
        Message::TokenMode { total, is_last, work_us } => {
            w.put_u8(TAG_TOKEN_MODE);
            w.put_u64(*total);
            w.put_bool(*is_last);
            w.put_u64(*work_us);
        }
        Message::Error { code, message } => {
            w.put_u8(TAG_ERROR);
            w.put_u16(*code);
            w.put_str(message);
        }
        Message::Infer { id, trace, rows, cols, data } => {
            w.put_u8(TAG_INFER);
            w.put_u64(*id);
            w.put_u64(*trace);
            w.put_u32(*rows);
            w.put_u32(*cols);
            data.encode(&mut w);
        }
        Message::InferResult { id, rows, cols, data } => {
            w.put_u8(TAG_INFER_RESULT);
            w.put_u64(*id);
            w.put_u32(*rows);
            w.put_u32(*cols);
            data.encode(&mut w);
        }
        Message::InferReject { id, reason, message } => {
            w.put_u8(TAG_INFER_REJECT);
            w.put_u64(*id);
            w.put_u8(reason.to_wire());
            w.put_str(message);
        }
        Message::StatsRequest { id } => {
            w.put_u8(TAG_STATS_REQUEST);
            w.put_u64(*id);
        }
        Message::StatsReply { id, frame } => {
            w.put_u8(TAG_STATS_REPLY);
            w.put_u64(*id);
            w.put_u32(frame.len() as u32);
            w.put_bytes(frame);
        }
    }
    w.into_bytes()
}

/// Decodes one frame payload into a message, requiring every byte to be
/// consumed ([`CodecError::Trailing`] otherwise).
pub fn decode_message(payload: &[u8]) -> Result<Message, CodecError> {
    let mut r = Reader::new(payload);
    let msg = match r.get_u8()? {
        TAG_HELLO => Message::Hello(StageConfig::decode(&mut r)?),
        TAG_HELLO_ACK => Message::HelloAck {
            protocol: r.get_u16()?,
            stage: r.get_u32()?,
            clock_us: r.get_u64()?,
        },
        TAG_INIT_SHARD => Message::InitShard { params: r.get_f32s()? },
        TAG_FETCH_SHARD => Message::FetchShard {
            step: r.get_u64()?,
            micro: r.get_u32()?,
            pass: PassKind::from_wire(r.get_u8()?)?,
        },
        TAG_SHARD => {
            let ShardHead { step, micro, pass, stage, trace } = ShardHead::decode(&mut r)?;
            Message::Shard { step, micro, pass, stage, trace, data: TensorPayload::decode(&mut r)? }
        }
        TAG_GRAD_SHARD => {
            let GradHead { step, lr, apply, trace } = GradHead::decode(&mut r)?;
            Message::GradShard { step, lr, apply, trace, data: TensorPayload::decode(&mut r)? }
        }
        TAG_STEP_ACK => Message::StepAck {
            step: r.get_u64()?,
            stage: r.get_u32()?,
            sq_norm: r.get_f64()?,
            finite: r.get_bool()?,
        },
        TAG_COMMIT => Message::Commit { step: r.get_u64()?, keep: r.get_bool()? },
        TAG_COMMIT_ACK => {
            Message::CommitAck { step: r.get_u64()?, stage: r.get_u32()?, sq_norm: r.get_f64()? }
        }
        TAG_FLUSH => Message::Flush { id: r.get_u64()? },
        TAG_FLUSH_ACK => Message::FlushAck { id: r.get_u64()?, last_step: r.get_u64()? },
        TAG_TELEMETRY => Message::Telemetry { stage: r.get_u32()?, jsonl: r.get_str()? },
        TAG_SHUTDOWN => Message::Shutdown,
        TAG_SHUTDOWN_ACK => Message::ShutdownAck { stage: r.get_u32()?, last_step: r.get_u64()? },
        TAG_TOKEN => Message::Token { backward: r.get_bool()?, id: r.get_u64()? },
        TAG_TOKEN_MODE => Message::TokenMode {
            total: r.get_u64()?,
            is_last: r.get_bool()?,
            work_us: r.get_u64()?,
        },
        TAG_ERROR => Message::Error { code: r.get_u16()?, message: r.get_str()? },
        TAG_INFER => Message::Infer {
            id: r.get_u64()?,
            trace: r.get_u64()?,
            rows: r.get_u32()?,
            cols: r.get_u32()?,
            data: TensorPayload::decode(&mut r)?,
        },
        TAG_INFER_RESULT => Message::InferResult {
            id: r.get_u64()?,
            rows: r.get_u32()?,
            cols: r.get_u32()?,
            data: TensorPayload::decode(&mut r)?,
        },
        TAG_INFER_REJECT => Message::InferReject {
            id: r.get_u64()?,
            reason: RejectReason::from_wire(r.get_u8()?)?,
            message: r.get_str()?,
        },
        TAG_STATS_REQUEST => Message::StatsRequest { id: r.get_u64()? },
        TAG_STATS_REPLY => {
            let id = r.get_u64()?;
            let len = r.get_u32()? as usize;
            Message::StatsReply { id, frame: r.get_bytes(len)?.to_vec() }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::SparseMode;

    fn sample_config() -> StageConfig {
        StageConfig {
            protocol: PROTOCOL_VERSION,
            stage: 1,
            stages: 4,
            n_micro: 4,
            method: Method::PipeMare,
            param_len: 1000,
            shard_lo: 250,
            shard_hi: 500,
            opt: OptimizerKind::AdamW { beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.01 },
            t2_decay: Some(0.5),
            gamma: 0.870_550_6,
            recomp_slots: Some(2),
            recomp_t2: true,
            warmup_steps: 10,
            weight_storage: StoragePrecision::Bf16,
        }
    }

    #[test]
    fn every_message_roundtrips_field_identical() {
        let msgs = vec![
            Message::Hello(sample_config()),
            Message::HelloAck { protocol: PROTOCOL_VERSION, stage: 3, clock_us: 123_456_789 },
            Message::InitShard { params: vec![0.5, -0.25, 0.0] },
            Message::FetchShard { step: 7, micro: 2, pass: PassKind::Recomp },
            Message::Shard {
                step: 7,
                micro: 2,
                pass: PassKind::Fwd,
                stage: 0,
                trace: 3,
                data: TensorPayload::from_dense(&[0.0, 1.0, 0.0, -2.0], SparseMode::DropZeros),
            },
            Message::GradShard {
                step: 7,
                lr: 0.01,
                apply: true,
                trace: 8,
                data: TensorPayload::Dense(vec![1.0; 5]),
            },
            Message::StepAck { step: 7, stage: 2, sq_norm: 42.5, finite: true },
            Message::Commit { step: 7, keep: false },
            Message::CommitAck { step: 7, stage: 2, sq_norm: 41.0 },
            Message::Flush { id: 9 },
            Message::FlushAck { id: 9, last_step: 7 },
            Message::Telemetry { stage: 1, jsonl: "{\"kind\":\"fwd\"}\n".into() },
            Message::Shutdown,
            Message::ShutdownAck { stage: 3, last_step: 20 },
            Message::Token { backward: true, id: 11 },
            Message::TokenMode { total: 24, is_last: false, work_us: 150 },
            Message::Error { code: 2, message: "shape mismatch".into() },
            Message::Infer {
                id: 31,
                trace: 32,
                rows: 2,
                cols: 3,
                data: TensorPayload::Dense(vec![0.5, -1.0, 2.0, 0.0, 3.5, -0.125]),
            },
            Message::InferResult {
                id: 31,
                rows: 2,
                cols: 2,
                data: TensorPayload::Dense(vec![0.9, 0.1, 0.3, 0.7]),
            },
            Message::InferReject {
                id: 32,
                reason: RejectReason::QueueFull,
                message: "admission queue full (cap 64)".into(),
            },
            Message::StatsRequest { id: 77 },
            Message::StatsReply { id: 77, frame: vec![5, 0, 0, 0, 1, 2, 3, 4, 5] },
        ];
        for m in msgs {
            let bytes = encode_message(&m);
            let back = decode_message(&bytes).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert_eq!(m, back, "{} must round-trip", m.name());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_message(&Message::Shutdown);
        bytes.push(0xFF);
        assert_eq!(decode_message(&bytes), Err(CodecError::Trailing(1)));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode_message(&[200]), Err(CodecError::BadTag(200)));
    }
}
