//! Stages that compute: a pipeline stage that owns its layers and its
//! weights, the paper's §2.2 picture.
//!
//! A [`ChainStage`] is one stage of an [`Mlp`] split by its run's
//! partition ([`pipemare_nn::Sequential::splits_at`]). It owns that
//! [`ServeSplit`] and a [`ShardStage`] with its parameters, and is the
//! [`StageWork`] the executor runs for the stage, under
//! [`pipemare_pipeline::walk`] or [`pipemare_pipeline::run_pipeline`]'s
//! threads alike. A forward runs the split and stashes its cache (the last
//! stage also takes the loss and its gradient); a backward runs the split
//! backwards on that cache and sums its step's gradient as the step
//! driver does.
//!
//! An op reads what [`plan`] gives its step and microbatch, T2 gap
//! included, which must be the version the op names ([`StageOp::reads`]).
//! A finished step's update is applied lazily, just before the first op
//! that reads it ([`pipemare_pipeline::delay`]), so a GPipe or PipeMare
//! stage keeps one version and at most one finished update, and a
//! PipeDream stage only the versions its microbatches in flight reread.
//!
//! A stage's shard-sized buffers are its versions, δ under T2, its
//! unapplied updates and the step's gradient sum, reusing the last applied
//! update's buffer; a read buffer exists once an op reads other than the
//! latest version untouched (a T2 backward, an older PipeDream version),
//! a backward scratch once a step has a second microbatch.
//!
//! Given the in-process trainer's model, configuration, seed and
//! microbatches, the stages reproduce its losses and weights bit for bit.
//! One difference: a stage whose update is not finite reverts only its
//! own, where the step driver reverts every stage's and stops.

use std::collections::VecDeque;

use pipemare_nn::{
    cross_entropy_logits, Cache, CrossEntropyCfg, ImageBatch, InferModel, Mlp, ServeSplit,
};
use pipemare_optim::OptimizerKind;
use pipemare_pipeline::{Method, PipelineClock, StageOp, StageOpKind, StageWork};
use pipemare_tensor::{StoragePrecision, Tensor};
use pipemare_theory::delay_slots;

use crate::config::{TrainConfig, TrainMode};
use crate::driver::RunLayout;
use crate::error::CommsError;
use crate::protocol::{PassKind, StageConfig};
use crate::stage::{all_finite, plan, ReadPlan, ShardStage};

/// A forward's cache, kept for its microbatch's backward.
struct Stashed {
    micro: usize,
    cache: Cache,
    /// The loss gradient, at the last stage.
    dlogits: Option<Tensor>,
}

/// One pipeline stage of an [`Mlp`] that computes: its layers, its
/// weights and optimizer, and the caches of its microbatches in flight.
pub struct ChainStage<'a> {
    model: &'a Mlp,
    split: ServeSplit,
    cfg: &'a TrainConfig,
    clock: PipelineClock,
    stage_cfg: StageConfig,
    shard: ShardStage,
    /// The run's microbatches, by global id, and each one's share of
    /// its minibatch.
    data: &'a [ImageBatch],
    micro_weights: &'a [f32],
    /// The read buffer, empty until an op reads other than the latest.
    weights: Vec<f32>,
    stash: VecDeque<Stashed>,
    /// The current step's gradient sum, and the gradient of its second
    /// and later microbatches (empty while N = 1).
    grad: Vec<f32>,
    scratch: Vec<f32>,
    /// Gradients of finished steps whose updates are not applied yet,
    /// oldest first, and the buffer of the last one applied.
    finished: VecDeque<Vec<f32>>,
    spare: Vec<f32>,
    /// Per step, the weighted sum of its microbatches' losses (last
    /// stage only).
    losses: Vec<f32>,
}

impl<'a> ChainStage<'a> {
    /// The `cfg.stages` stages of a run of `model` under `cfg`, seeded
    /// from `init_seed` as the in-process trainer is. `data[m]` is global
    /// microbatch `m`, and `micro_weights[n]` the share of microbatch `n`
    /// of a minibatch in its loss and gradient.
    ///
    /// # Errors
    ///
    /// [`CommsError::Unsupported`] for what the stages do not reproduce
    /// (Hogwild delays, recompute, gradient clipping, T3 warm-up, bf16
    /// storage, optimizers other than SGD, a stage boundary inside a
    /// layer), and for `micro_weights` whose length is not `N`.
    pub fn for_run(
        model: &'a Mlp,
        cfg: &'a TrainConfig,
        init_seed: u64,
        data: &'a [ImageBatch],
        micro_weights: &'a [f32],
    ) -> Result<Vec<Self>, CommsError> {
        let unsupported =
            |what: &str| Err(CommsError::Unsupported(format!("compute stages: {what}")));
        let method = match cfg.mode {
            TrainMode::Pipeline(method) => method,
            TrainMode::Hogwild(_) => return unsupported("Hogwild delays"),
        };
        if cfg.recompute.is_some() || cfg.grad_clip.is_some() || cfg.warmup_steps > 0 {
            return unsupported("recompute, clipping and warm-up");
        }
        if cfg.weight_storage != StoragePrecision::F32
            || !matches!(cfg.optimizer, OptimizerKind::Sgd { .. })
        {
            return unsupported("bf16 storage and optimizers other than SGD");
        }
        if micro_weights.len() != cfg.n_micro {
            return unsupported("micro_weights must hold one weight per microbatch");
        }
        let layout = RunLayout::new(model, cfg, init_seed);
        let Some(splits) = model.chain().splits_at(layout.partition.ranges()) else {
            return unsupported("a stage boundary inside a layer");
        };
        let (stages, n_micro) = (cfg.stages, cfg.n_micro);
        let mut out = Vec::with_capacity(stages);
        for (s, (split, stage_cfg)) in splits.into_iter().zip(layout.stage_cfgs).enumerate() {
            let (lo, hi) = layout.partition.range(s);
            // Lazily applied, a PipeDream stage's oldest reread version
            // trails its latest by at most ⌈2(P−1−s)/N⌉ steps; every
            // other stage reads only its latest.
            let window = match method {
                Method::PipeDream => (delay_slots(stages, s) - 1).div_ceil(n_micro) + 1,
                Method::GPipe | Method::PipeMare => 1,
            };
            let shard = ShardStage::new(stage_cfg.clone(), layout.params[lo..hi].to_vec())?
                .with_window(window);
            out.push(ChainStage {
                model,
                split,
                cfg,
                clock: layout.clock,
                stage_cfg,
                weights: Vec::new(),
                grad: Vec::new(),
                scratch: Vec::new(),
                spare: Vec::new(),
                shard,
                data,
                micro_weights,
                stash: VecDeque::new(),
                finished: VecDeque::new(),
                losses: Vec::new(),
            });
        }
        Ok(out)
    }

    /// The stage's weights, optimizer and versions.
    pub fn shard(&self) -> &ShardStage {
        &self.shard
    }

    /// Finished steps whose updates are not applied yet.
    pub fn pending(&self) -> usize {
        self.finished.len()
    }

    /// Microbatches whose forward has run here and backward has not.
    pub fn in_flight(&self) -> usize {
        self.stash.len()
    }

    /// Each step's loss, the `micro_weights`-weighted sum over its
    /// microbatches as the step driver reports it: the last stage's, and
    /// empty at every other stage.
    pub fn losses(&self) -> &[f32] {
        &self.losses
    }

    /// Applies every finished update and returns the latest weights.
    pub fn apply_finished(&mut self) -> &[f32] {
        while !self.finished.is_empty() {
            self.apply_next();
        }
        self.shard.latest()
    }

    /// Applies the oldest finished update: the step's optimizer update at
    /// the stage's T1-scaled rate, committed if it and its gradient are
    /// finite and reverted otherwise.
    fn apply_next(&mut self) {
        let grad = self.finished.pop_front().expect("a finished update");
        let step = self.shard.committed_steps();
        let (t, s) = (step as usize, self.stage_cfg.stage as usize);
        let lr = self.cfg.schedule.lr(t) * self.cfg.t1_scale(&self.clock, s, t);
        let finite = all_finite(&grad);
        let staged = self.shard.apply_grad(step, lr, finite, &grad);
        let (_, staged_finite) = staged.expect("a stage stages its own gradient");
        self.shard.commit(step, finite && staged_finite).expect("and commits it");
        self.spare = grad;
    }

    /// Plans what `op` computes with, applying finished updates until the
    /// stage holds its version: every op reads exactly `op.reads`.
    ///
    /// # Panics
    ///
    /// If the planned version is not the one the op names, or its update
    /// has not finished here.
    fn read(&mut self, op: &StageOp, pass: PassKind) -> ReadPlan {
        let n = self.cfg.n_micro;
        let (step, micro) = ((op.micro / n) as u64, (op.micro % n) as u32);
        let stage = self.stage_cfg.stage;
        let read = plan(&self.stage_cfg, &self.clock, step, micro, pass).expect("a planned read");
        assert_eq!(read.version, op.reads, "stage {stage}: {op:?} is planned another version");
        while (self.shard.committed_steps() as usize) < read.version {
            assert!(!self.finished.is_empty(), "stage {stage}: {op:?} reads an unfinished update");
            self.apply_next();
        }
        read
    }

    fn forward(&mut self, op: &StageOp, input: Option<Tensor>) -> Tensor {
        let read = self.read(op, PassKind::Fwd);
        let weights = weights(&self.shard, &mut self.weights, read);
        let batch = &self.data[op.micro];
        let x = input.unwrap_or_else(|| self.model.prepare_input(&batch.x));
        let (y, cache) = self.model.chain().forward_split(weights, &self.split, &x);
        let dlogits = (self.stage_cfg.stage + 1 == self.stage_cfg.stages).then(|| {
            let (loss, dlogits) = cross_entropy_logits(&y, &batch.y, CrossEntropyCfg::default());
            let (t, n) = (op.micro / self.cfg.n_micro, op.micro % self.cfg.n_micro);
            self.losses.resize(t + 1, 0.0);
            self.losses[t] += self.micro_weights[n] * loss;
            dlogits
        });
        self.stash.push_back(Stashed { micro: op.micro, cache, dlogits });
        y
    }

    fn backward(&mut self, op: &StageOp, input: Option<Tensor>) -> Tensor {
        let read = self.read(op, PassKind::Bkwd);
        let Stashed { micro, cache, dlogits } = self.stash.pop_front().expect("a stashed forward");
        assert_eq!(micro, op.micro, "backwards run in forward order");
        let dy = input.or(dlogits).expect("a gradient from the next stage or the loss");
        let n = op.micro % self.cfg.n_micro;
        let out = if n == 0 {
            self.grad = std::mem::take(&mut self.spare);
            &mut self.grad
        } else {
            &mut self.scratch
        };
        out.resize(self.shard.len(), 0.0);
        let weights = weights(&self.shard, &mut self.weights, read);
        let dx = self.model.chain().backward_split(weights, &self.split, &cache, &dy, out);
        let w = self.micro_weights[n];
        // As the step driver: the first microbatch's gradient becomes
        // the sum as `0 + w·g`, the others add `w·g`.
        if n == 0 {
            self.grad.iter_mut().for_each(|g| *g = 0.0 + w * *g);
        } else {
            self.grad.iter_mut().zip(&self.scratch).for_each(|(acc, &g)| *acc += w * g);
        }
        if n + 1 == self.cfg.n_micro {
            self.finished.push_back(std::mem::take(&mut self.grad));
        }
        dx
    }
}

/// The weights `read` names: the stored latest version in place, and
/// anything else read into `buf`.
fn weights<'w>(shard: &'w ShardStage, buf: &'w mut Vec<f32>, read: ReadPlan) -> &'w [f32] {
    if read.gap.is_none() && read.version as u64 == shard.committed_steps() {
        return shard.latest();
    }
    buf.resize(shard.len(), 0.0);
    shard.read_into(read, buf).expect("the window holds the version");
    buf
}

impl StageWork for ChainStage<'_> {
    /// Activations down the chain, their gradients back up.
    type Payload = Tensor;

    fn run(&mut self, op: &StageOp, input: Option<Tensor>) -> Tensor {
        match op.kind {
            StageOpKind::Fwd => self.forward(op, input),
            StageOpKind::Bkwd => self.backward(op, input),
            StageOpKind::Recomp => panic!("compute stages run no replays"),
        }
    }
}
