//! The one step driver: a training step, written once, over shards that
//! may live anywhere.
//!
//! Model compute (forward/backward) runs here, as in the paper's App. C.4
//! simulation; each stage's weights, δ and optimizer live in a
//! [`ShardStage`] the driver reaches through [`ShardAccess`] and never
//! learns the whereabouts of: [`LocalShards`] holds them in this process
//! (a read is a copy, stage/commit are calls — the in-process
//! `PipelineTrainer`), `orchestrator::RemoteShards` behind worker links
//! (the `DistributedTrainer`). Everything that decides a step's numbers
//! is therefore stated once — version selection ([`plan`]), the T2 read
//! and the δ update ([`ShardStage`]), γ and the T1 scale
//! ([`TrainConfig`]), and here the microbatch loop, clipping, the finite
//! vote and the two-phase stage/commit — so the two trainers agree bit
//! for bit by construction.
//!
//! # Version-aware reads
//!
//! An asynchronous stage reads whatever weight version is in memory
//! (§2.2, Table 1), so a step touches few distinct versions. The driver
//! keeps one parameter buffer per pass kind (forward, backward,
//! recompute) for the whole run — the gradient lives only within a step,
//! in microbatch 0's backward output — and remembers, per buffer and
//! stage, the [`ContentTag`] of what the buffer holds. Every
//! read of a step is resolved up front; a read whose tag its buffer holds
//! moves nothing, one whose tag another buffer holds is a copy between
//! buffers, and only a tag held nowhere is requested from the stage: in
//! steady state once per stage and step for GPipe and PipeDream, twice
//! for PipeMare (a new forward version, a T2-corrected backward read),
//! whatever `N` is. All requests go out before the first forward; each is
//! filled, straight into its buffer, at the read that needs it and no
//! earlier (filling ahead would overwrite values an earlier read uses).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_nn::TrainModel;
use pipemare_optim::clip_grad_norm;
use pipemare_pipeline::{Method, PipelineClock, StagePartition};

use crate::config::{StepStats, TrainConfig, TrainMode};
use crate::error::CommsError;
use crate::protocol::{PassKind, StageConfig};
use crate::stage::{all_finite, plan, ContentTag, ReadPlan, ShardStage};

/// Most requests a stage may have unanswered at once: it bounds what a
/// remote driver writes while replies are outstanding (`orchestrator`).
pub const FETCH_WINDOW: usize = 64;

/// One read the driver does not hold: which of the step's reads it
/// serves (index into the read order) and what it asks of the stage.
#[derive(Clone, Copy, Debug)]
pub struct Fetch {
    read: usize,
    pub step: u64,
    pub micro: u32,
    pub pass: PassKind,
    /// The version and T2 term the read resolved to.
    pub plan: ReadPlan,
}

/// Where a run's stage shards live. The driver plans every read and
/// every update itself; this only moves the values.
pub trait ShardAccess {
    /// Asks stage `s` for a read it will later [`Self::fill`] from, in
    /// request order. Nothing to do where a fill can simply read.
    fn request(&mut self, _s: usize, _fetch: &Fetch) -> Result<(), CommsError> {
        Ok(())
    }

    /// Fills `dst` with the values of stage `s`'s oldest unfilled request.
    fn fill(&mut self, s: usize, fetch: &Fetch, dst: &mut [f32]) -> Result<(), CommsError>;

    /// Phase one of step `step`: every stage runs its optimizer (unless
    /// `!apply`: the gradient was not finite) on its `ranges` slice of
    /// `grad` at its rate `lr(s)` and stages the result. Returns whether
    /// every staged shard is finite.
    fn stage_update(
        &mut self,
        step: u64,
        apply: bool,
        lr: &dyn Fn(usize) -> f32,
        grad: &[f32],
        ranges: &[(usize, usize)],
    ) -> Result<bool, CommsError>;

    /// Phase two: every stage commits (`keep`) or reverts its staged
    /// update. Returns Σx² over the committed weights.
    fn commit(&mut self, step: u64, keep: bool) -> Result<f64, CommsError>;
}

/// Shards in this process: a request is nothing, a fill is a copy, stage
/// and commit are calls.
pub struct LocalShards {
    /// The stages, by index.
    pub stages: Vec<ShardStage>,
}

impl LocalShards {
    /// One stage per range of `layout`, seeded from its parameters. A
    /// Hogwild run's windows reach back as far as its sampler can draw.
    pub fn new(cfg: &TrainConfig, layout: &RunLayout) -> Result<Self, CommsError> {
        let mut stages = Vec::with_capacity(cfg.stages);
        for (sc, &(lo, hi)) in layout.stage_cfgs.iter().zip(layout.partition.ranges()) {
            let stage = ShardStage::new(sc.clone(), layout.params[lo..hi].to_vec())?;
            stages.push(match &cfg.mode {
                TrainMode::Hogwild(h) => stage.with_window(h.max() + 1),
                TrainMode::Pipeline(_) => stage,
            });
        }
        Ok(LocalShards { stages })
    }
}

impl ShardAccess for LocalShards {
    fn fill(&mut self, s: usize, fetch: &Fetch, dst: &mut [f32]) -> Result<(), CommsError> {
        self.stages[s].read_into(fetch.plan, dst)
    }

    fn stage_update(
        &mut self,
        step: u64,
        apply: bool,
        lr: &dyn Fn(usize) -> f32,
        grad: &[f32],
        ranges: &[(usize, usize)],
    ) -> Result<bool, CommsError> {
        let mut finite = true;
        for (s, (stage, &(lo, hi))) in self.stages.iter_mut().zip(ranges).enumerate() {
            finite &= stage.apply_grad(step, lr(s), apply, &grad[lo..hi])?.1;
        }
        Ok(finite)
    }

    fn commit(&mut self, step: u64, keep: bool) -> Result<f64, CommsError> {
        self.stages.iter_mut().map(|stage| stage.commit(step, keep)).sum()
    }
}

/// What both trainers derive from `(model, config, seed)` before any
/// shard exists.
pub struct RunLayout {
    /// Which parameters each stage owns.
    pub partition: StagePartition,
    /// The pipeline's delay arithmetic.
    pub clock: PipelineClock,
    /// Per-stage configuration, by stage.
    pub stage_cfgs: Vec<StageConfig>,
    /// Freshly initialized parameters (weight version 0).
    pub params: Vec<f32>,
}

impl RunLayout {
    /// Lays `model` out over `cfg`'s stages; `init_seed` seeds parameter
    /// initialization, so the same seed gives the same starting weights
    /// wherever the shards end up.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent with the model (zero
    /// stages or microbatches, more stages than parameters).
    pub fn new<M: TrainModel>(model: &M, cfg: &TrainConfig, init_seed: u64) -> Self {
        let partition = cfg.partition(model);
        let clock = PipelineClock::new(cfg.stages, cfg.n_micro);
        let mut params = vec![0.0f32; model.param_len()];
        model.init_params(&mut params, &mut StdRng::seed_from_u64(init_seed));
        let stage_cfgs = (0..cfg.stages).map(|s| cfg.stage_config(&clock, &partition, s)).collect();
        RunLayout { partition, clock, stage_cfgs, params }
    }
}

const FWD: usize = 0;
const BKWD: usize = 1;
const RECOMP: usize = 2;

/// Index of the driver-owned buffer a pass reads into.
fn buffer_of(pass: PassKind) -> usize {
    match pass {
        PassKind::Fwd => FWD,
        PassKind::Bkwd => BKWD,
        PassKind::Recomp => RECOMP,
        PassKind::Latest => unreachable!("Latest reads are gathered, not buffered"),
    }
}

/// A read served from another buffer that already holds its tag.
struct LocalCopy {
    read: usize,
    stage: usize,
    from: usize,
    to: usize,
}

/// One stage's fetches of the current step, in the order their values
/// are needed (= requested = filled).
#[derive(Clone, Default)]
struct Pending {
    queue: VecDeque<Fetch>,
    /// How many of `queue`, from the front, have been requested.
    requested: usize,
}

/// Runs training steps over shards reached through `A`.
pub struct StepDriver<A> {
    cfg: TrainConfig,
    layout: RunLayout,
    access: A,
    /// One full-length vector per buffered pass kind, kept for the whole
    /// run (the initial vector becomes the forward buffer; the recompute
    /// buffer is empty unless the run recomputes)...
    bufs: [Vec<f32>; 3],
    /// ...each remembering per stage the tag of the shard it holds
    /// (`None`: nothing trustworthy).
    held: [Vec<Option<ContentTag>>; 3],
    fetches: Vec<Pending>,
    /// The current step's copies between buffers, in read order.
    copies: VecDeque<LocalCopy>,
    /// Hogwild: the delay drawn for each stage this step (empty in a
    /// pipeline mode and during warmup).
    hog_delays: Vec<usize>,
    hogwild_rng: StdRng,
    /// Requests made by training steps so far.
    requests: u64,
    /// Set when a step failed midway; see [`Self::step`].
    failed: bool,
    step: usize,
    diverged: bool,
    clipped: bool,
}

impl<A: ShardAccess> StepDriver<A> {
    /// A driver at step 0 over freshly seeded shards.
    pub fn new(cfg: TrainConfig, mut layout: RunLayout, access: A) -> Self {
        // A step frees everything it allocates; see `heap`.
        pipemare_tensor::heap::keep_freed_memory();
        let (stages, total) = (cfg.stages, layout.params.len());
        // Version 0, read as the f32 master, at every stage.
        let mut held = [vec![None; stages], vec![None; stages], vec![None; stages]];
        for (s, sc) in layout.stage_cfgs.iter().enumerate() {
            held[FWD][s] = Some(ReadPlan { version: 0, gap: None }.tag(sc, 0));
        }
        let recomputes = cfg.recompute.is_some() && cfg.mode.method() == Some(Method::PipeMare);
        let recomp_buf = if recomputes { vec![0.0f32; total] } else { Vec::new() };
        StepDriver {
            bufs: [std::mem::take(&mut layout.params), vec![0.0f32; total], recomp_buf],
            held,
            fetches: vec![Pending::default(); stages],
            copies: VecDeque::new(),
            hog_delays: Vec::new(),
            hogwild_rng: StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9),
            requests: 0,
            failed: false,
            step: 0,
            diverged: false,
            clipped: false,
            cfg,
            layout,
            access,
        }
    }

    /// The run's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Partition, clock and per-stage configuration.
    pub fn layout(&self) -> &RunLayout {
        &self.layout
    }

    /// The shards.
    pub fn access(&self) -> &A {
        &self.access
    }

    /// The shards, for what is not a training step (gather, restore,
    /// shutdown); follow a change of their contents by [`Self::resume_at`].
    pub fn access_mut(&mut self) -> &mut A {
        &mut self.access
    }

    /// Optimizer steps completed.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Whether training has hit non-finite weights or gradients.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Whether the last step's gradient was over the clip norm.
    pub fn clipped(&self) -> bool {
        self.clipped
    }

    /// After a step: the weights its last microbatch's forward pass read.
    pub fn fwd_weights(&self) -> &[f32] {
        &self.bufs[FWD]
    }

    /// Shard reads training steps have requested so far, over all stages:
    /// one per distinct content tag the driver did not hold.
    pub fn shard_requests(&self) -> u64 {
        self.requests
    }

    /// Lets a step pass untrained — the run has diverged, or the caller
    /// has stopped updating — and reports it as such (runners stop early).
    pub fn skip_step(&mut self, param_norm: f32) -> StepStats {
        let (t, diverged) = (self.step, self.diverged);
        self.step += 1;
        let base_lr = self.cfg.schedule.lr(t);
        StepStats { step: t, loss: f32::NAN, param_norm, base_lr, diverged }
    }

    /// Continues from `step` over shards whose contents were replaced
    /// (a restored checkpoint): nothing the buffers hold is trusted.
    pub fn resume_at(&mut self, step: usize, diverged: bool) {
        self.step = step;
        self.diverged = diverged;
        self.drop_held();
    }

    /// Marks the driver unusable after an exchange outside a step failed
    /// (a reply may still be in flight).
    pub fn poison(&mut self) {
        self.failed = true;
        self.drop_held();
    }

    /// `Err` once an exchange has failed with replies in flight.
    pub fn check_usable(&self) -> Result<(), CommsError> {
        if self.failed {
            return Err(CommsError::Protocol(
                "trainer is unusable: an earlier exchange failed with replies in flight".into(),
            ));
        }
        Ok(())
    }

    fn drop_held(&mut self) {
        self.held.iter_mut().for_each(|held| held.fill(None));
        self.copies.clear();
        self.fetches.fill(Pending::default());
    }

    /// What one read of the current step resolves to at stage `s`: the
    /// version Hogwild drew for the stage this step (no T2; App. E), or
    /// the pipeline's [`plan`].
    fn plan_read(&self, s: usize, micro: u32, pass: PassKind) -> Result<ReadPlan, CommsError> {
        match self.hog_delays.get(s) {
            Some(&d) => Ok(ReadPlan { version: self.step.saturating_sub(d), gap: None }),
            None => {
                plan(&self.layout.stage_cfgs[s], &self.layout.clock, self.step as u64, micro, pass)
            }
        }
    }

    /// Requests queued fetches of stage `s` up to the window.
    fn pump(&mut self, s: usize) -> Result<(), CommsError> {
        let Pending { queue, requested } = &mut self.fetches[s];
        while *requested < queue.len().min(FETCH_WINDOW) {
            self.access.request(s, &queue[*requested])?;
            *requested += 1;
            self.requests += 1;
        }
        Ok(())
    }

    /// Resolves every read of the current step — `passes` for each of
    /// `n_micro` microbatches, in the order the step needs them — against
    /// what the buffers will hold by then: held tags cost nothing, tags
    /// another buffer holds become copies, the rest are fetched — and all
    /// requests go out now.
    ///
    /// The held tags are advanced here, ahead of the data; until
    /// [`Self::await_read`] has run for a read its buffer is not yet
    /// what the tags say. A failure in between is why [`Self::step`]
    /// drops everything held on error.
    fn schedule_reads(&mut self, passes: &[PassKind], n_micro: usize) -> Result<(), CommsError> {
        let step = self.step as u64;
        for read in 0..n_micro * passes.len() {
            let (micro, pass) = ((read / passes.len()) as u32, passes[read % passes.len()]);
            let to = buffer_of(pass);
            for s in 0..self.cfg.stages {
                let plan = self.plan_read(s, micro, pass)?;
                let tag = Some(plan.tag(&self.layout.stage_cfgs[s], step));
                if self.held[to][s] == tag {
                    continue;
                }
                match (0..self.held.len()).find(|&b| self.held[b][s] == tag) {
                    Some(from) => self.copies.push_back(LocalCopy { read, stage: s, from, to }),
                    None => {
                        self.fetches[s].queue.push_back(Fetch { read, step, micro, pass, plan })
                    }
                }
                self.held[to][s] = tag;
            }
        }
        (0..self.cfg.stages).try_for_each(|s| self.pump(s))
    }

    /// Brings the buffer of read `read` up to date: fills, per stage,
    /// every fetch up to and including that read — never a later one,
    /// whose values would overwrite what this read or a copy still
    /// needs — then performs the read's copies between buffers.
    fn await_read(&mut self, read: usize) -> Result<(), CommsError> {
        for s in 0..self.cfg.stages {
            let (lo, hi) = self.layout.partition.range(s);
            while self.fetches[s].queue.front().is_some_and(|f| f.read <= read) {
                let fetch = self.fetches[s].queue.pop_front().expect("front exists");
                self.fetches[s].requested -= 1;
                let dst = &mut self.bufs[buffer_of(fetch.pass)][lo..hi];
                self.access.fill(s, &fetch, dst)?;
                self.pump(s)?;
            }
        }
        while self.copies.front().is_some_and(|c| c.read <= read) {
            let LocalCopy { stage, from, to, .. } = self.copies.pop_front().expect("front exists");
            let (lo, hi) = self.layout.partition.range(stage);
            let (src, dst) = if from < to {
                let (head, tail) = self.bufs.split_at_mut(to);
                (&head[from], &mut tail[0])
            } else {
                let (head, tail) = self.bufs.split_at_mut(from);
                (&tail[0], &mut head[to])
            };
            dst[lo..hi].copy_from_slice(&src[lo..hi]);
        }
        Ok(())
    }

    /// Runs one optimizer step on a minibatch already split into
    /// `n_micro` microbatches; `micro_weights[n]` is the fraction of the
    /// minibatch's samples in microbatch `n` (the per-microbatch mean
    /// losses and gradients are combined with these weights).
    /// `on_grad` sees the accumulated gradient before it is clipped.
    ///
    /// # Errors
    ///
    /// Any failure of the access. Replies may then be in flight and a
    /// buffer half written, so the driver drops every held tag and this
    /// and every later call return an error.
    ///
    /// # Panics
    ///
    /// If the microbatch count or weight count is wrong.
    pub fn step<M: TrainModel>(
        &mut self,
        model: &M,
        micro: &[M::Batch],
        micro_weights: &[f32],
        on_grad: impl FnOnce(&[f32]),
    ) -> Result<StepStats, CommsError> {
        let n_micro = self.cfg.n_micro;
        assert_eq!(micro.len(), n_micro, "expected {n_micro} microbatches, got {}", micro.len());
        assert_eq!(micro.len(), micro_weights.len());
        self.check_usable()?;
        let out = self.step_once(model, micro, micro_weights, on_grad);
        if out.is_err() {
            self.poison();
        }
        out
    }

    fn step_once<M: TrainModel>(
        &mut self,
        model: &M,
        micro: &[M::Batch],
        micro_weights: &[f32],
        on_grad: impl FnOnce(&[f32]),
    ) -> Result<StepStats, CommsError> {
        if self.diverged {
            return Ok(self.skip_step(f32::INFINITY));
        }
        let t = self.step;
        let base_lr = self.cfg.schedule.lr(t);
        let sync_phase = t < self.cfg.warmup_steps;
        // Hogwild: one sampled delay per stage per optimizer step.
        self.hog_delays.clear();
        if let (TrainMode::Hogwild(h), false) = (&self.cfg.mode, sync_phase) {
            let rng = &mut self.hogwild_rng;
            self.hog_delays.extend((0..self.cfg.stages).map(|s| h.sample(s, rng)));
        }
        // Recompute: the loss comes from the true forward pass, but the
        // activations the backward pass consumes are recomputed under a
        // third, fresher delayed version — optionally T2-corrected
        // toward the forward version (App. D).
        let recompute_pass = self.cfg.recompute.is_some()
            && !sync_phase
            && self.cfg.mode.method() == Some(Method::PipeMare);
        let passes: &[PassKind] = if recompute_pass {
            &[PassKind::Fwd, PassKind::Recomp, PassKind::Bkwd]
        } else {
            &[PassKind::Fwd, PassKind::Bkwd]
        };
        self.schedule_reads(passes, micro.len())?;

        // Microbatch 0's gradient becomes the accumulator, scaled in place
        // as `0 + w·g` (so a −0.0 or NaN keeps the bits a zeroed
        // accumulator gave it); no gradient outlives the step.
        let mut grad = Vec::new();
        let mut loss_acc = 0.0f32;
        for (n, (batch, &weight)) in micro.iter().zip(micro_weights).enumerate() {
            let read = n * passes.len();
            self.await_read(read)?;
            let (loss, cache) = if recompute_pass {
                let (loss, _) = model.forward_loss(&self.bufs[FWD], batch);
                self.await_read(read + 1)?;
                (loss, model.forward_loss(&self.bufs[RECOMP], batch).1)
            } else {
                model.forward_loss(&self.bufs[FWD], batch)
            };
            loss_acc += weight * loss;
            self.await_read(read + passes.len() - 1)?;
            let g = model.backward(&self.bufs[BKWD], &cache);
            drop(cache);
            if n == 0 {
                grad = g;
                grad.iter_mut().for_each(|gi| *gi = 0.0 + weight * *gi);
            } else {
                for (acc, &gi) in grad.iter_mut().zip(g.iter()) {
                    *acc += weight * gi;
                }
            }
        }

        on_grad(&grad);
        self.clipped =
            self.cfg.grad_clip.is_some_and(|clip| clip_grad_norm(&mut grad, clip) > clip);
        let grad_finite = all_finite(&grad);
        let (cfg, clock) = (&self.cfg, &self.layout.clock);
        let lr = |s: usize| base_lr * cfg.t1_scale(clock, s, t);
        // Phase 1: every stage stages its update. Phase 2: commit
        // everywhere, or — one non-finite value anywhere — revert
        // everywhere, keeping the last finite weights.
        let ranges = self.layout.partition.ranges();
        let staged_finite = self.access.stage_update(t as u64, grad_finite, &lr, &grad, ranges)?;
        let keep = grad_finite && staged_finite;
        self.diverged = !keep;
        let sq_norm = self.access.commit(t as u64, keep)?;
        self.step += 1;
        let param_norm = sq_norm.sqrt() as f32;
        Ok(StepStats { step: t, loss: loss_acc, param_norm, base_lr, diverged: self.diverged })
    }
}

impl StepDriver<LocalShards> {
    /// Gathers the latest committed weights, contiguous, into the
    /// backward buffer — between steps its contents are spent — for
    /// [`Self::latest`] to lend out. Tagged like any read, so the next
    /// step copies instead of reading wherever it wants this version.
    pub fn gather_latest(&mut self) {
        let (step, layout) = (self.step as u64, &self.layout);
        for (s, stage) in self.access.stages.iter().enumerate() {
            let (lo, hi) = layout.partition.range(s);
            let sc = &layout.stage_cfgs[s];
            self.bufs[BKWD][lo..hi].copy_from_slice(stage.latest());
            self.held[BKWD][s] = Some(ReadPlan { version: self.step, gap: None }.tag(sc, step));
        }
    }

    /// The weights [`Self::gather_latest`] gathered.
    pub fn latest(&self) -> &[f32] {
        &self.bufs[BKWD]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_nn::{ImageBatch, Mlp};
    use pipemare_optim::{ConstantLr, OptimizerKind};
    use pipemare_pipeline::HogwildDelays;
    use pipemare_tensor::Tensor;

    fn local_driver(model: &Mlp, cfg: TrainConfig) -> StepDriver<LocalShards> {
        let layout = RunLayout::new(model, &cfg, 5);
        let shards = LocalShards::new(&cfg, &layout).unwrap();
        StepDriver::new(cfg, layout, shards)
    }

    #[test]
    fn hogwild_reads_the_version_it_drew_up_to_the_largest_delay() {
        // P = 3, N = 1: τ₀ = 5, delays are drawn up to ⌈2·5⌉ = 10, and a
        // stage's window must reach that far back — a pipeline-deep
        // window (⌈τ₀⌉ + 2 = 7 versions) would serve a fresher version
        // than the one drawn for every d ≥ 7.
        let delays = HogwildDelays::from_pipeline_profile(3, 1);
        let max = delays.max();
        assert_eq!(max, 10);
        let model = Mlp::new(&[4, 6, 2]);
        let sgd = OptimizerKind::Sgd { weight_decay: 0.0 };
        let mut cfg = TrainConfig::gpipe(3, 1, sgd, Box::new(ConstantLr(0.02)));
        cfg.mode = TrainMode::Hogwild(delays);
        let mut driver = local_driver(&model, cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let batch =
            ImageBatch { x: Tensor::randn(&[8, 4], &mut rng), y: vec![0, 1, 0, 1, 1, 0, 1, 0] };
        let mut versions = vec![driver.access().stages[0].latest().to_vec()];
        for _ in 0..max + 4 {
            driver.step(&model, std::slice::from_ref(&batch), &[1.0], |_| {}).unwrap();
            versions.push(driver.access().stages[0].latest().to_vec());
        }
        let t = driver.steps_done();
        assert!(t > max && versions[t - max] != versions[t - max + 1]);
        // Force the largest delay on every stage and read as the step would.
        driver.hog_delays = vec![max; 3];
        let read = driver.plan_read(0, 0, PassKind::Fwd).unwrap();
        assert_eq!(read, ReadPlan { version: t - max, gap: None });
        let stage = &driver.access().stages[0];
        let mut got = vec![0.0; stage.len()];
        stage.read_into(read, &mut got).unwrap();
        assert_eq!(got, versions[t - max], "exactly version t − max_delay");
        // One version further back is outside the window: an error, not
        // the nearest version kept.
        let too_old = ReadPlan { version: t - max - 1, gap: None };
        assert!(matches!(stage.read_into(too_old, &mut got), Err(CommsError::Protocol(_))));
    }
}
