//! The PipeMare training system: asynchronous pipeline-parallel trainers.
//!
//! This crate ties the substrates together: a [`PipelineTrainer`] takes
//! any [`pipemare_nn::TrainModel`], partitions its weight units into `P`
//! stages, and trains it under the delay semantics of GPipe, PipeDream,
//! PipeMare, or Hogwild!-style stochastic asynchrony. The stage-update
//! core — stage state, read plan, step driver, [`TrainConfig`] — lives in
//! `pipemare_comms`, shared with the distributed trainer; this crate
//! holds it in one process and adds runners, checkpoints, metrics and
//! health. PipeMare's three techniques are available à la carte:
//!
//! * **T1** learning-rate rescheduling ([`pipemare_optim::T1Rescheduler`]),
//! * **T2** discrepancy correction (the per-stage δ velocity buffer),
//! * **T3** synchronous warmup epochs,
//!
//! plus the App. D recompute delay model (delayed recomputed activations
//! with T2-for-recompute).
//!
//! [`runners`] starts a training run: [`run`] trains any model on a
//! [`Task`] (image classification, translation) for the epochs a
//! [`RunSpec`] sets, scoring the parameters after each one, and
//! [`run_regression_training`] steps linear regression at full batch.
//! Both refuse with a [`RunError`] before the first step. [`stats`]
//! holds the run histories and the normalized time model used for
//! time-to-accuracy numbers.

pub mod checkpoint;
pub mod distributed;
pub mod health;
pub mod metrics;
pub mod runners;
pub mod serving;
pub mod stats;
pub mod trainer;

pub use checkpoint::{
    load_params, load_state, save_params, save_state, CheckpointError, TrainerState,
};
pub use distributed::{dist_config, train_distributed_loopback, train_distributed_tcp};
pub use health::{AnomalyPolicy, HealthHook};
pub use metrics::TrainerMetrics;
pub use pipemare_comms::{RecomputeCfg, StepStats, TrainConfig, TrainMode};
pub use runners::{run, run_regression_training, ClassifierModel, RunError, RunSpec, Task};
pub use serving::{serve_checkpoint, serve_live_loopback};
pub use stats::{EpochRecord, RunHistory};
pub use trainer::PipelineTrainer;
