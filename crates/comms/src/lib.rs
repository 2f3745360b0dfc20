//! Multi-process distributed pipeline for the PipeMare stack, over a
//! real transport.
//!
//! One stage-update core — [`stage::ShardStage`] owns a stage's weights,
//! δ and optimizer, [`driver::StepDriver`] runs a training step over
//! shards wherever they live — and everything needed to put a process
//! boundary between the two:
//!
//! * [`config`]: [`config::TrainConfig`], the one description of a run,
//!   and what it means per stage (partition, γ, T1 scale).
//! * [`driver`]: the step driver over [`driver::LocalShards`] (same
//!   process) or [`orchestrator::RemoteShards`] (worker links).
//! * [`codec`]: framed [`codec::TensorPayload`]s carrying dense or
//!   sparse-encoded (threshold / top-k index+value) tensors, over the
//!   workspace's one byte codec (`pipemare_telemetry::codec`, re-exported
//!   here), with every malformed input surfacing as a typed
//!   [`error::CodecError`], never a panic.
//! * [`protocol`]: the [`protocol::Message`] set — versioned handshake
//!   with shape/config validation, shard fetches, gradient/commit
//!   two-phase steps, flush barriers, telemetry batches, token-mode
//!   latency pipelining, shutdown.
//! * [`transport`]: blocking [`transport::Sender`]/[`transport::Receiver`]
//!   over a [`transport::Transport`] trait with TCP (`TcpTransport`,
//!   configurable receive timeout) and in-process loopback
//!   ([`transport::loopback_pair`]) implementations, plus wire-byte
//!   accounting ([`transport::WireStats`]).
//! * [`compute`]: [`compute::ChainStage`] — a pipeline stage that
//!   computes: an `Mlp` split and its own [`stage::ShardStage`], run by
//!   the pipeline executor as the stage's `StageWork`.
//! * [`stage`]: [`stage::ShardStage`] — one stage's weight shard,
//!   optimizer state, weight-version window and T2 δ buffer — and
//!   [`stage::plan`], the one version-selection function, whose
//!   [`stage::ContentTag`] lets the driver read each distinct weight
//!   version once.
//! * [`worker`]: [`worker::run_stage_worker_opts`] — the message-driven
//!   stage loop (training and token modes).
//! * [`orchestrator`]: [`orchestrator::DistributedTrainer`] (the step
//!   driver over worker links), the token-pipeline hub, and loopback
//!   worker spawning. The `orchestrator` binary wires it all together
//!   end to end.
//!
//! Failures are diagnosable by construction: a dead or wedged worker
//! surfaces as [`error::CommsError::WorkerLost`] carrying the stage id
//! and the last step that worker acknowledged.

pub mod codec;
pub mod compute;
pub mod config;
pub mod driver;
pub mod error;
pub mod orchestrator;
pub mod protocol;
pub mod stage;
pub mod transport;
pub mod worker;

pub use codec::{SparseMode, TensorPayload, MAX_FRAME};
pub use compute::ChainStage;
pub use config::{RecomputeCfg, StepStats, TrainConfig, TrainMode};
pub use driver::{LocalShards, RunLayout, ShardAccess, StepDriver, FETCH_WINDOW};
pub use error::{CodecError, CommsError};
pub use orchestrator::{
    gather_shards, handshake_worker, run_token_pipeline, spawn_loopback_workers,
    token_stage_config, DistConfig, DistRunReport, DistributedTrainer, RemoteShards,
    TokenPipelineReport, WorkerHandle, WorkerLink,
};
pub use protocol::{
    shard_chunks, GradHead, Message, PassKind, RejectReason, ShardHead, StageConfig,
    PROTOCOL_VERSION, SHARD_CHUNK,
};
pub use stage::{plan, ContentTag, ReadPlan, ShardStage, StageState, MAX_STAGES};
pub use transport::{
    channel, loopback_pair, FrameRx, FrameTx, LoopbackTransport, Receiver, Sender, TcpTransport,
    Transport, WireStats,
};
pub use worker::{run_stage_worker_opts, StageWorkerReport, WorkerOptions, MAX_TOKENS};
