//! Training configuration: the one description of a run, and what it
//! means for each stage. Both trainers take a [`TrainConfig`]; what a
//! stage needs from it — shard bounds, γ, recompute slots — is derived
//! here, once, as the [`StageConfig`] that [`crate::stage::ShardStage`]
//! and [`crate::stage::plan`] work from.

use pipemare_nn::TrainModel;
use pipemare_optim::{LrSchedule, OptimizerKind, T1Rescheduler};
use pipemare_pipeline::{HogwildDelays, Method, PipelineClock, StagePartition};
use pipemare_tensor::StoragePrecision;
use pipemare_theory::{gamma_from_d, recomp_delay_slots};

use crate::protocol::{StageConfig, PROTOCOL_VERSION};

/// Statistics of one optimizer step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Optimizer step index.
    pub step: usize,
    /// Mean training loss over the minibatch.
    pub loss: f32,
    /// L2 norm of the parameters after the step (Figure 7's diagnostic;
    /// ∞ once diverged).
    pub param_norm: f32,
    /// Base learning rate used (before T1 per-stage scaling).
    pub base_lr: f32,
    /// Whether the trainer has diverged.
    pub diverged: bool,
}

/// How weight versions are delayed during training.
#[derive(Clone, Debug)]
pub enum TrainMode {
    /// Deterministic pipeline delays (GPipe / PipeDream / PipeMare).
    Pipeline(Method),
    /// Hogwild!-style stochastic delays (App. E): each stage's whole
    /// gradient is computed at a randomly delayed weight version.
    Hogwild(HogwildDelays),
}

impl TrainMode {
    /// The underlying pipeline method, if deterministic.
    pub fn method(&self) -> Option<Method> {
        match self {
            TrainMode::Pipeline(m) => Some(*m),
            TrainMode::Hogwild(_) => None,
        }
    }
}

/// PipeMare Recompute simulation (App. D): backward passes consume
/// activations recomputed under a third, differently delayed weight
/// version.
#[derive(Clone, Copy, Debug)]
pub struct RecomputeCfg {
    /// Number of gradient-checkpoint segments the stages are grouped
    /// into (the paper sweeps e.g. {2, 4, 17} on ResNet).
    pub segments: usize,
    /// Whether the T2-for-recompute correction is applied to the
    /// recomputed-activation weights.
    pub t2: bool,
}

impl RecomputeCfg {
    /// Recompute with `segments` checkpoint segments and no T2-for-
    /// recompute correction.
    pub fn new(segments: usize) -> Self {
        assert!(segments >= 1, "need at least one checkpoint segment");
        RecomputeCfg { segments, t2: false }
    }

    /// The App. D near-memory-optimal configuration for a `stages`-stage
    /// pipeline: segments of size ≈ √P (the memory model's
    /// `optimal_segment`), with the T2 correction enabled.
    pub fn optimal(stages: usize) -> Self {
        let seg = pipemare_pipeline::ActivationModel { p: stages }.optimal_segment();
        RecomputeCfg { segments: stages.div_ceil(seg), t2: true }
    }

    /// Enables the T2-for-recompute correction.
    pub fn with_t2(mut self) -> Self {
        self.t2 = true;
        self
    }

    /// The stage-group size `S` implied by the segment count for a
    /// `stages`-stage pipeline (ceil division; the last segment may be
    /// short).
    pub fn segment_size(&self, stages: usize) -> usize {
        stages.div_ceil(self.segments.max(1)).max(1)
    }
}

/// Full training configuration, for the in-process and the distributed
/// trainer alike.
pub struct TrainConfig {
    /// Delay semantics.
    pub mode: TrainMode,
    /// Number of pipeline stages `P`.
    pub stages: usize,
    /// Microbatches per minibatch `N`.
    pub n_micro: usize,
    /// Optimizer update rule.
    pub optimizer: OptimizerKind,
    /// Base learning-rate schedule (indexed by optimizer step).
    pub schedule: Box<dyn LrSchedule>,
    /// T1 learning-rate rescheduling (None disables).
    pub t1: Option<T1Rescheduler>,
    /// T2 discrepancy correction: the global decay hyperparameter `D`
    /// (None disables).
    pub t2_decay: Option<f64>,
    /// T3: number of *optimizer steps* run synchronously (GPipe-style)
    /// before switching to the asynchronous mode. The runners convert
    /// warmup epochs to steps.
    pub warmup_steps: usize,
    /// Global gradient-norm clip (None disables).
    pub grad_clip: Option<f32>,
    /// Recompute delay simulation (None disables).
    pub recompute: Option<RecomputeCfg>,
    /// Partition stages by equal *element* counts instead of the paper's
    /// equal *weight-unit* counts (ablation of the partitioning scheme).
    pub partition_by_elements: bool,
    /// Storage precision for the delayed (non-latest) weight-history
    /// versions. [`StoragePrecision::F32`] (the default) is bit-exact;
    /// [`StoragePrecision::Bf16`] halves the history footprint at one
    /// RNE rounding per stored weight (see the health monitor's
    /// `quant_eps` for how the margins account for it).
    pub weight_storage: StoragePrecision,
    /// Seed for Hogwild delay sampling.
    pub seed: u64,
}

impl TrainConfig {
    /// A synchronous (GPipe) baseline configuration.
    pub fn gpipe(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::GPipe),
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
            seed: 0,
        }
    }

    /// A PipeDream (weight-stashing) configuration.
    pub fn pipedream(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::PipeDream),
            ..TrainConfig::gpipe(stages, n_micro, optimizer, schedule)
        }
    }

    /// A full PipeMare configuration (T1 + T2; add `warmup_steps` for T3).
    pub fn pipemare(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
        t1: T1Rescheduler,
        t2_decay: f64,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::PipeMare),
            t1: Some(t1),
            t2_decay: Some(t2_decay),
            ..TrainConfig::gpipe(stages, n_micro, optimizer, schedule)
        }
    }

    /// Naive asynchronous training: PipeMare delays with none of the
    /// techniques (used by the divergence studies, Figure 7).
    pub fn naive_async(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::PipeMare),
            ..TrainConfig::gpipe(stages, n_micro, optimizer, schedule)
        }
    }

    /// Splits `model`'s parameters into this run's stages.
    pub fn partition<M: TrainModel>(&self, model: &M) -> StagePartition {
        let total = model.param_len();
        if self.partition_by_elements {
            return StagePartition::by_elements(total, self.stages);
        }
        let units: Vec<(usize, usize)> =
            model.weight_units().iter().map(|u| (u.offset, u.len)).collect();
        StagePartition::from_units(&units, total, self.stages)
    }

    /// Nominal `(τ_fwd, τ_bkwd)` of stage `s` in optimizer steps: the
    /// pipeline's Table 1 delays, or a Hogwild stage's mean for both.
    pub fn nominal_taus(&self, clock: &PipelineClock, s: usize) -> (f64, f64) {
        match &self.mode {
            TrainMode::Pipeline(m) => {
                (clock.nominal_tau_fwd_for(*m, s), clock.nominal_tau_bkwd(*m, s))
            }
            TrainMode::Hogwild(h) => (h.means[s], h.means[s]),
        }
    }

    /// The T1 learning-rate multiplier of stage `s` at optimizer step
    /// `step`: 1 during T3 warmup and for the synchronous methods,
    /// otherwise rescheduled by the stage's nominal forward delay.
    pub fn t1_scale(&self, clock: &PipelineClock, s: usize, step: usize) -> f32 {
        let (Some(t1), false) = (&self.t1, step < self.warmup_steps) else { return 1.0 };
        match &self.mode {
            TrainMode::Pipeline(Method::PipeMare) | TrainMode::Hogwild(_) => {
                t1.scale(step - self.warmup_steps, self.nominal_taus(clock, s).0)
            }
            TrainMode::Pipeline(_) => 1.0,
        }
    }

    /// What stage `s` of this run is configured with — locally or over
    /// the handshake. γ is `D^{1/gap}` with the gap τ_fwd − τ_bkwd =
    /// τ_fwd under PipeMare; with recompute + T2 the backward also
    /// consumes activations delayed by τ_recomp, so App. D widens the
    /// gap to max(τ_fwd, τ_recomp), which at late stages genuinely
    /// changes γ. A Hogwild stage reads through driver-drawn plans, so
    /// its method only has to be one that reads the latest version
    /// during warmup.
    pub fn stage_config(
        &self,
        clock: &PipelineClock,
        partition: &StagePartition,
        s: usize,
    ) -> StageConfig {
        let method = self.mode.method();
        let (lo, hi) = partition.range(s);
        let seg = self.recompute.map(|rc| rc.segment_size(self.stages));
        let recomp_t2 = self.recompute.is_some_and(|rc| rc.t2);
        let gap = match (method, seg) {
            (Some(Method::PipeMare), Some(seg)) if recomp_t2 => {
                clock.nominal_tau_fwd(s).max(clock.nominal_tau_recomp(seg, s))
            }
            (Some(Method::PipeMare), _) => clock.nominal_tau_fwd(s),
            _ => 0.0,
        };
        StageConfig {
            protocol: PROTOCOL_VERSION,
            stage: s as u32,
            stages: self.stages as u32,
            n_micro: self.n_micro as u32,
            method: method.unwrap_or(Method::GPipe),
            param_len: partition.total_params() as u64,
            shard_lo: lo as u64,
            shard_hi: hi as u64,
            opt: self.optimizer,
            t2_decay: self.t2_decay,
            gamma: self.t2_decay.map_or(0.0, |d| gamma_from_d(d, gap)),
            recomp_slots: seg.map(|seg| recomp_delay_slots(seg, s) as u32),
            recomp_t2,
            warmup_steps: self.warmup_steps as u64,
            weight_storage: self.weight_storage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_optim::ConstantLr;

    #[test]
    fn constructors_set_modes() {
        let g = TrainConfig::gpipe(
            4,
            2,
            OptimizerKind::Sgd { weight_decay: 0.0 },
            Box::new(ConstantLr(0.1)),
        );
        assert_eq!(g.mode.method(), Some(Method::GPipe));
        assert!(g.t1.is_none() && g.t2_decay.is_none());
        let p = TrainConfig::pipemare(
            4,
            2,
            OptimizerKind::Sgd { weight_decay: 0.0 },
            Box::new(ConstantLr(0.1)),
            T1Rescheduler::new(100),
            0.135,
        );
        assert_eq!(p.mode.method(), Some(Method::PipeMare));
        assert!(p.t1.is_some() && p.t2_decay.is_some());
        let d = TrainConfig::pipedream(
            4,
            2,
            OptimizerKind::Sgd { weight_decay: 0.0 },
            Box::new(ConstantLr(0.1)),
        );
        assert_eq!(d.mode.method(), Some(Method::PipeDream));
        let h = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(4, 2));
        assert_eq!(h.method(), None);
    }

    #[test]
    fn recompute_cfg_segment_size() {
        let rc = RecomputeCfg::new(2);
        assert!(!rc.t2);
        assert!(rc.with_t2().t2);
        assert_eq!(rc.segment_size(4), 2);
        assert_eq!(rc.segment_size(9), 5, "ceil division leaves a short tail segment");
        assert_eq!(RecomputeCfg::new(1).segment_size(3), 3);
        // optimal(P) picks segments of size ≈ √P and turns the
        // correction on.
        let opt = RecomputeCfg::optimal(16);
        assert!(opt.t2);
        assert_eq!(opt.segment_size(16), 4);
    }
}
