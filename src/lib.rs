//! # PipeMare: Asynchronous Pipeline Parallel DNN Training
//!
//! A from-scratch Rust reproduction of *PipeMare: Asynchronous Pipeline
//! Parallel DNN Training* (Yang, Zhang, Li, Ré, Aberger, De Sa —
//! MLSYS 2021). This facade crate re-exports the whole stack:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `pipemare-tensor` | dense f32 tensors, matmul, conv |
//! | [`nn`] | `pipemare-nn` | explicit-parameter layers & models (MLP, ResNet, Transformer) |
//! | [`optim`] | `pipemare-optim` | SGD/momentum/Adam/AdamW, schedules, T1 rescheduler |
//! | [`data`] | `pipemare-data` | synthetic datasets, accuracy/BLEU/perplexity |
//! | [`theory`] | `pipemare-theory` | quadratic-model stability analysis (Lemmas 1–3) |
//! | [`pipeline`] | `pipemare-pipeline` | delay schedules, cost models, threaded executor |
//! | [`core`] | `pipemare-core` | the PipeMare/GPipe/PipeDream/Hogwild trainers |
//! | [`telemetry`] | `pipemare-telemetry` | trace recording (null/flight/full tiers), metrics, Chrome-trace export, `pm trace` analysis |
//! | [`comms`] | `pipemare-comms` | multi-process distributed pipeline: binary wire codec, TCP/loopback transports, stage workers, `orchestrator` binary |
//! | [`serve`] | `pipemare-serve` | pipelined inference serving: admission control, work-conserving batching, staged forward engine, policy simulator |
//!
//! ## Quickstart
//!
//! ```
//! use pipemare::core::{run, RunSpec, TrainConfig};
//! use pipemare::data::SyntheticImages;
//! use pipemare::nn::Mlp;
//! use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
//!
//! let dataset = SyntheticImages::cifar_like(40, 20, 0).generate();
//! let model = Mlp::new(&[3 * 16 * 16, 16, 10]);
//! let cfg = TrainConfig::pipemare(
//!     4,                      // pipeline stages P
//!     2,                      // microbatches per minibatch N
//!     OptimizerKind::Sgd { weight_decay: 0.0 },
//!     Box::new(ConstantLr(0.02)),
//!     T1Rescheduler::new(20), // T1: anneal the 1/τ rescaling over 20 steps
//!     0.135,                  // T2: discrepancy-correction decay D ≈ e⁻²
//! );
//! let spec = RunSpec { epochs: 2, minibatch: 10, eval_n: 20, seed: 7, ..RunSpec::default() };
//! let history = run(&model, &dataset, cfg, spec).expect("every minibatch fills N");
//! assert!(!history.diverged);
//! ```

pub use pipemare_comms as comms;
pub use pipemare_core as core;
pub use pipemare_data as data;
pub use pipemare_nn as nn;
pub use pipemare_optim as optim;
pub use pipemare_pipeline as pipeline;
pub use pipemare_serve as serve;
pub use pipemare_telemetry as telemetry;
pub use pipemare_tensor as tensor;
pub use pipemare_theory as theory;
