//! The pipeline-parallel execution model of the PipeMare paper (§2).
//!
//! This crate owns everything about *how* a pipeline executes, independent
//! of any particular neural network:
//!
//! * [`partition`]: splitting a model's weight units into `P` contiguous
//!   stages (§4.1 "Pipeline Stages").
//! * [`delay`]: the per-microbatch weight-version schedules of GPipe,
//!   PipeDream and PipeMare, reproducing the delays of Table 1
//!   (`τ_fwd,i = (2(P−i)+1)/N`, `τ_bkwd` per method).
//! * [`history`]: the ring buffer of recent weight versions that the
//!   paper's own simulator maintains ("a queue of weights for each
//!   individual pipeline stage", App. C.4).
//! * [`cost`]: the throughput and memory models — normalized throughput
//!   (Table 1), the equal-budget GPipe throughput of ~0.3 (App. A.3),
//!   weight+optimizer memory including PipeDream's stashing (Table 2
//!   methodology), and activation memory with/without PipeMare Recompute
//!   (App. A.1–A.2, Tables 4–5, Figure 6).
//! * [`plan`]: the schedule as data — one lazy op row per stage for
//!   GPipe, PipeDream, PipeMare and PipeMare Recompute, which the
//!   in-process executor and the distributed token workers both walk.
//! * [`executor`]: the one stage loop and a real multi-threaded pipeline
//!   (crossbeam channels) whose stages outlive a minibatch call, with one
//!   [`StageWork`] per stage, used to validate the throughput and memory
//!   models on wall-clock time.
//! * [`recompute`]: PipeMare Recompute (§2.2, App. A.2, App. D) — the
//!   segmented activation-recomputation runtime whose measured per-stage
//!   peaks must equal the analytical `profile_recompute`.
//! * [`hogwild`]: truncated-exponential stochastic delays (App. E).

pub mod cost;
pub mod delay;
pub mod executor;
pub mod history;
pub mod hogwild;
pub mod partition;
pub mod plan;
pub mod recompute;
pub mod schedule;

pub use cost::{
    gpipe_bubble_throughput, gpipe_equal_budget_throughput, normalized_throughput, ActivationModel,
    MemoryModel,
};
pub use delay::{Method, PipelineClock};
pub use executor::{
    run_pipeline, run_stage, walk, with_pipeline, Pipe, PipelineReport, Sleep, StageLinks,
    StageWork, Stall, Token,
};
pub use history::WeightHistory;
pub use hogwild::HogwildDelays;
pub use partition::StagePartition;
pub use plan::{Link, OpenPlan, PipelinePlan};
pub use recompute::{
    is_segment_boundary, simulate_peaks, stage_replays, ActivationLedger, RecomputePolicy, StageOp,
    StageOpKind,
};
pub use schedule::ForwardPipeline;
