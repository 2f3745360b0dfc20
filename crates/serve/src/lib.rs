//! Pipelined inference serving on the PipeMare stack.
//!
//! Training fills the pipeline with microbatches to hide stage
//! latency; serving faces the same utilization problem from the other
//! side — requests arrive one at a time, and a pipeline fed
//! single-row batches pays the full per-batch weight-traversal cost
//! on every one. This crate closes the loop:
//!
//! * [`StagedEngine`] — forward-only pipelined execution: the model is
//!   tiled into contiguous layer spans ([`pipemare_nn::ServeSplit`]),
//!   one thread per stage, several batches in flight. Outputs are
//!   bit-identical to the training-path forward (same kernels, same
//!   reduction order) regardless of stage count or batch size.
//! * [`Server`] — admission control (bounded queue, typed
//!   `queue_full` / `draining` / `invalid` / `backend` rejects) and
//!   work-conserving micro-batching: a request is dispatched the moment
//!   stage 0 can take it, with every request queued behind it up to
//!   [`ServeConfig::max_batch_rows`] rows.
//! * [`InferClient`] — the matching client over any
//!   [`pipemare_comms::Transport`] (loopback or TCP), speaking the
//!   `Infer`/`InferResult`/`InferReject` extension of the training
//!   wire protocol.
//! * [`WeightSource`] / [`ShardWeightSource`] — live weight refresh
//!   from training stage workers via step-free
//!   [`pipemare_comms::PassKind::Latest`] fetches, so a model can be
//!   served while it trains.
//! * [`policy`] — a deterministic integer-time simulator of the exact
//!   admission + batching + pipeline policy, for regression-gated
//!   benchmark keys that cannot flake on wall-clock noise.

pub mod client;
pub mod config;
pub mod engine;
pub mod error;
pub mod policy;
pub mod server;
pub mod weights;

pub use client::InferClient;
pub use config::ServeConfig;
pub use engine::{DynRecorder, ServeRecorder, StagedEngine};
pub use error::{Rejection, ServeError};
pub use policy::{poissonish_trace, quantile, simulate, SimConfig, SimOutcome, SimRequest};
pub use server::{ServeStats, Server};
pub use weights::{ShardWeightSource, StaticWeights, WeightSource};
