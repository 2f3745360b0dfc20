//! The pipeline-parallel trainer.

use pipemare_comms::{LocalShards, RunLayout, StepDriver, StepStats, TrainConfig};
use pipemare_nn::TrainModel;
use pipemare_pipeline::{PipelineClock, StagePartition};
use pipemare_telemetry::{Recorder, SpanKind, StageObservation};

use crate::checkpoint::{CheckpointError, TrainerState};
use crate::health::{AnomalyPolicy, HealthHook};
use crate::metrics::TrainerMetrics;

/// Trains a [`TrainModel`] under pipeline-parallel delay semantics.
///
/// The step itself is [`StepDriver`]'s, over stage shards held in this
/// process ([`LocalShards`]): per microbatch, each stage's delayed
/// forward version, the forward pass, the (possibly T2-corrected)
/// backward version, and the two-argument gradient `∇f(u_fwd, u_bkwd)` —
/// the simulation strategy of the paper's App. C.4. This type adds what
/// only an in-process run has: a contiguous view of the latest weights,
/// metrics and health hooks, and checkpoints.
pub struct PipelineTrainer<'m, M: TrainModel> {
    model: &'m M,
    driver: StepDriver<LocalShards>,
    metrics: Option<TrainerMetrics>,
    health: Option<HealthHook>,
    /// Latched by [`AnomalyPolicy::Halt`]; freezes further updates.
    halted: bool,
    /// Previous step's (pre-clip) gradient, for the λ̂ secant estimate.
    prev_grad: Option<Vec<f32>>,
    /// Previous step's forward-version weights, for the λ̂ secant
    /// denominator.
    prev_fwd: Option<Vec<f32>>,
}

impl<'m, M: TrainModel> PipelineTrainer<'m, M> {
    /// Creates a trainer with freshly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent with the model (e.g.
    /// more stages than parameters).
    pub fn new(model: &'m M, cfg: TrainConfig, init_seed: u64) -> Self {
        let layout = RunLayout::new(model, &cfg, init_seed);
        let shards = LocalShards::new(&cfg, &layout).expect("a layout yields valid stages");
        let mut driver = StepDriver::new(cfg, layout, shards);
        driver.gather_latest();
        PipelineTrainer {
            model,
            driver,
            metrics: None,
            health: None,
            halted: false,
            prev_grad: None,
            prev_fwd: None,
        }
    }

    /// Attaches metrics instruments; every subsequent
    /// [`PipelineTrainer::train_minibatch`] records into them.
    pub fn set_metrics(&mut self, metrics: TrainerMetrics) {
        self.metrics = Some(metrics);
    }

    /// Attaches a health hook; every subsequent
    /// [`PipelineTrainer::train_minibatch`] feeds the hook's
    /// [`pipemare_telemetry::HealthMonitor`] a per-stage [`StageObservation`], evaluates the
    /// hook's rules, and applies its snapshot/halt policy to the rules
    /// that fire.
    ///
    /// # Panics
    ///
    /// Panics if the monitor was built for a different stage count.
    pub fn set_health(&mut self, hook: HealthHook) {
        assert_eq!(
            hook.monitor.n_stages(),
            self.driver.config().stages,
            "health monitor stage count must match the trainer"
        );
        self.health = Some(hook);
    }

    /// Whether the anomaly policy has halted training.
    pub fn health_halted(&self) -> bool {
        self.halted
    }

    /// The latest parameter vector: the contiguous copy the driver
    /// gathers from the stages after every step.
    pub fn params(&self) -> &[f32] {
        self.driver.latest()
    }

    /// Optimizer steps completed.
    pub fn steps_done(&self) -> usize {
        self.driver.steps_done()
    }

    /// Whether training has hit non-finite weights.
    pub fn diverged(&self) -> bool {
        self.driver.diverged()
    }

    /// The stage partition in use.
    pub fn partition(&self) -> &StagePartition {
        &self.driver.layout().partition
    }

    /// The pipeline clock in use.
    pub fn clock(&self) -> &PipelineClock {
        &self.driver.layout().clock
    }

    /// Fraction of parameters on each stage (used by the memory model).
    pub fn stage_fracs(&self) -> Vec<f64> {
        let total = self.partition().total_params() as f64;
        self.partition().ranges().iter().map(|&(lo, hi)| (hi - lo) as f64 / total).collect()
    }

    /// Whether step `t` is still in the synchronous (T3) warmup phase.
    pub fn in_warmup(&self) -> bool {
        self.steps_done() < self.driver.config().warmup_steps
    }

    /// Snapshots everything needed to resume this run exactly, stage by
    /// stage (see [`pipemare_comms::StageState`]). Persist it with
    /// [`crate::checkpoint::save_state`].
    pub fn state(&self) -> TrainerState {
        TrainerState {
            step: self.steps_done(),
            diverged: self.diverged(),
            stages: self.driver.access().stages.iter().map(|stage| stage.state()).collect(),
        }
    }

    /// Restores a snapshot from [`PipelineTrainer::state`] into a trainer
    /// built with the same model and configuration. Deterministic
    /// pipeline modes continue bit-identically to the uninterrupted run;
    /// Hogwild mode restarts its delay-sampling stream.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] if the snapshot doesn't fit this
    /// trainer (a checkpoint from a different model, optimizer, or
    /// pipeline). Stages restored before the misfit was found keep the
    /// snapshot's contents: build a new trainer rather than train on.
    pub fn restore(&mut self, state: TrainerState) -> Result<(), CheckpointError> {
        let misfit = |why: String| Err(CheckpointError::Mismatch(why));
        let stages = &mut self.driver.access_mut().stages;
        if state.stages.len() != stages.len() {
            let (saved, own) = (state.stages.len(), stages.len());
            return misfit(format!("checkpoint has {saved} stages, trainer has {own}"));
        }
        for (stage, saved) in stages.iter_mut().zip(state.stages) {
            stage.restore(saved).or_else(|e| misfit(e.to_string()))?;
            if stage.committed_steps() != state.step as u64 {
                let (s, at) = (stage.stage(), stage.committed_steps());
                return misfit(format!("stage {s} is at step {at}, header says {}", state.step));
            }
        }
        self.driver.resume_at(state.step, state.diverged);
        self.driver.gather_latest();
        Ok(())
    }

    /// Runs one optimizer step on a minibatch already split into
    /// microbatches. `micro_weights[n]` is the fraction of minibatch
    /// samples in microbatch `n` (the per-microbatch mean losses/gradients
    /// are combined with these weights).
    ///
    /// # Panics
    ///
    /// Panics if `micro.len()` differs from the configured `n_micro` or
    /// the weights don't match.
    pub fn train_minibatch(&mut self, micro: &[M::Batch], micro_weights: &[f32]) -> StepStats {
        // Clock read only when metrics are attached — the bare trainer's
        // hot path is unchanged.
        let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
        // Flight-recorder step span: one clock read at the start, one at
        // the end — the ring write itself is lock-free.
        let flight_t0 = self.health.as_ref().and_then(|h| h.flight.as_ref()).map(|f| f.now_us());
        let t = self.steps_done();
        let sync_phase = self.in_warmup();
        if self.diverged() || self.halted {
            // Once diverged (or halted by the anomaly policy), report
            // without updating.
            let norm = if self.diverged() {
                f32::INFINITY
            } else {
                self.params().iter().map(|&w| w as f64 * w as f64).sum::<f64>().sqrt() as f32
            };
            let stats = self.driver.skip_step(norm);
            if let (Some(m), Some(s)) = (&self.metrics, started) {
                m.record_step(s, f32::NAN, stats.base_lr, 0.0, 0.0, norm, false, stats.diverged);
            }
            return stats;
        }
        // The health monitor's curvature secant wants the raw gradient of
        // the loss — clipping rescales it and would bias λ̂ — so capture
        // it before the clip. Only paid when a hook is attached.
        let mut raw_grad = None;
        let observed = self.health.is_some();
        let stats = self
            .driver
            .step(self.model, micro, micro_weights, |g| raw_grad = observed.then(|| g.to_vec()))
            .expect("shards in this process cannot be lost");
        self.driver.gather_latest();
        if let (Some(m), Some(s)) = (&self.metrics, started) {
            let cfg = self.driver.config();
            let delta_norm =
                norm(self.driver.access().stages.iter().flat_map(|st| st.delta()).copied());
            let stage0_lr = stats.base_lr * cfg.t1_scale(self.clock(), 0, t);
            m.record_step(
                s,
                stats.loss,
                stats.base_lr,
                stage0_lr as f64,
                delta_norm,
                stats.param_norm,
                self.driver.clipped(),
                stats.diverged,
            );
        }
        // Record the step span before observe_health so a black-box dump
        // triggered by this step's anomaly includes the step itself. The
        // driver track (`stages`) mirrors the threaded executor's layout.
        if let Some(t0) = flight_t0 {
            let flight =
                self.health.as_ref().and_then(|h| h.flight.as_ref()).expect("flight_t0 set");
            let t1 = flight.now_us();
            let track = self.driver.config().stages as u32;
            flight.record_span(SpanKind::Step, track, 0, t as u32, t0, t1);
        }
        if let Some(grad) = raw_grad {
            self.observe_health(t, sync_phase, stats.loss, grad, stats.base_lr);
        }
        stats
    }

    /// Feeds the attached [`pipemare_telemetry::HealthMonitor`] one observation for the step
    /// just completed, evaluates the hook's rules, and applies its
    /// snapshot/black-box/halt policy to the rules that fired.
    ///
    /// `grad` is the pre-clip minibatch gradient; with the last
    /// microbatch's forward-version weights, successive differences of
    /// the two give the monitor its curvature secant
    /// λ̂ ≈ ‖g_t − g_{t−1}‖ / ‖u_t − u_{t−1}‖ per stage. Using the
    /// forward version (rather than `w_new − w_old`) keeps the
    /// denominator on the same weight trajectory the gradient was
    /// evaluated on, so the estimate stays unbiased even while the
    /// iterates grow.
    fn observe_health(
        &mut self,
        t: usize,
        sync_phase: bool,
        loss: f32,
        grad: Vec<f32>,
        base_lr: f32,
    ) {
        let Some(hook) = &self.health else { return };
        let (cfg, layout) = (self.driver.config(), self.driver.layout());
        let fwd = self.driver.fwd_weights();
        let diff_norm = |a: &[f32], b: &[f32], lo: usize, hi: usize| {
            norm(a[lo..hi].iter().zip(&b[lo..hi]).map(|(&x, &y)| x as f64 - y as f64))
        };
        let mut stages = Vec::with_capacity(cfg.stages);
        for (s, stage) in self.driver.access().stages.iter().enumerate() {
            let (lo, hi) = layout.partition.range(s);
            let (grad_diff_norm, fwd_diff_norm) = match (&self.prev_grad, &self.prev_fwd) {
                (Some(pg), Some(pf)) => (diff_norm(&grad, pg, lo, hi), diff_norm(fwd, pf, lo, hi)),
                _ => (f64::NAN, f64::NAN),
            };
            // During T3 warmup every read is synchronous, so the margin
            // is judged at τ = 0; afterwards at the nominal delays.
            let (tau_fwd, tau_bkwd) =
                if sync_phase { (0.0, 0.0) } else { cfg.nominal_taus(&layout.clock, s) };
            stages.push(StageObservation {
                grad_diff_norm,
                fwd_diff_norm,
                weight_norm: norm(stage.latest().iter().copied()),
                delta_norm: norm(stage.delta().iter().copied()),
                // The α applied: the driver's own T1 scale.
                alpha: base_lr as f64 * cfg.t1_scale(&layout.clock, s, t) as f64,
                tau_fwd,
                tau_bkwd,
                gamma: layout.stage_cfgs[s].gamma,
            });
        }
        hook.monitor.observe(&stages);
        let grad_norm = norm(grad.iter().copied());
        let fired = hook.evaluate(t, loss as f64, grad_norm, self.driver.diverged());
        self.prev_fwd = Some(fwd.to_vec());
        self.prev_grad = Some(grad);

        let worst = fired.iter().filter(|a| a.firing).map(|a| a.severity).max();
        let gate_hit = worst.is_some_and(|w| w >= hook.snapshot_severity);
        let want_snapshot = !hook.snapshot_taken && hook.snapshot_dir.is_some() && gate_hit;
        // Black-box dump rides the same severity gate as the snapshot but
        // is independently enabled, so bounded flight recording works
        // without checkpointing and vice versa.
        let want_black_box = !hook.black_box_taken
            && hook.flight.is_some()
            && hook.black_box_dir.is_some()
            && gate_hit;
        self.halted |=
            hook.policy == AnomalyPolicy::Halt && worst.is_some_and(|w| w >= hook.halt_severity);
        // A write that fails is reported on stderr and leaves its
        // one-shot armed: the next firing at the gate tries again.
        if want_snapshot {
            // The state already includes this step's update (and, on
            // divergence, the preserved last-finite weights), so resuming
            // from it replays the rest of the run bit-identically.
            let state = self.state();
            let dir = self.health.as_ref().and_then(|h| h.snapshot_dir.clone()).unwrap();
            let path = dir.join(format!("anomaly_step{}.ckpt", state.step));
            let saved = std::fs::create_dir_all(&dir)
                .map_err(crate::checkpoint::CheckpointError::from)
                .and_then(|()| crate::checkpoint::save_state(&path, &state));
            if let Err(e) = &saved {
                eprintln!("health: snapshot-on-anomaly to {} failed: {e}", path.display());
            }
            self.health.as_mut().expect("hook checked above").snapshot_taken = saved.is_ok();
        }
        if want_black_box {
            let hook = self.health.as_mut().expect("hook checked above");
            let flight = hook.flight.as_ref().expect("gated above");
            let dir = hook.black_box_dir.as_ref().expect("gated above");
            // Whatever the rings still hold from the trailing window:
            // trainer step spans plus any executor stage spans recorded
            // into the same shared recorder.
            let dump = flight.recent(hook.black_box_window_us);
            let path = dir.join(format!("blackbox_step{t}.jsonl"));
            let written = pipemare_telemetry::write_jsonl(&dump, &path);
            if let Err(e) = &written {
                eprintln!("health: black-box dump to {} failed: {e}", path.display());
            }
            hook.black_box_taken = written.is_ok();
        }
    }
}

/// The L2 norm of `values`, summed in f64 from +0: an empty δ (T2 off)
/// has norm 0, where `Sum` would start from −0.
fn norm<X: Into<f64>>(values: impl IntoIterator<Item = X>) -> f64 {
    values.into_iter().map(Into::into).fold(0.0, |acc, x| acc + x * x).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_comms::{RecomputeCfg, TrainMode};
    use pipemare_nn::{ImageBatch, Mlp};
    use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
    use pipemare_pipeline::Method;
    use pipemare_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob_micro(seed: u64, n_micro: usize, per_micro: usize) -> (Vec<ImageBatch>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut micro = Vec::new();
        for _ in 0..n_micro {
            let mut x = Tensor::randn(&[per_micro, 4], &mut rng);
            let mut y = Vec::new();
            for i in 0..per_micro {
                let label = i % 2;
                for j in 0..4 {
                    x.data_mut()[i * 4 + j] += if label == 0 { 3.0 } else { -3.0 };
                }
                y.push(label);
            }
            micro.push(ImageBatch { x, y });
        }
        let w = vec![1.0 / n_micro as f32; n_micro];
        (micro, w)
    }

    fn sgd() -> OptimizerKind {
        OptimizerKind::Sgd { weight_decay: 0.0 }
    }

    #[test]
    fn gpipe_matches_sequential_sgd_exactly() {
        // GPipe is synchronous: training through the pipeline trainer must
        // equal plain full-batch SGD step for step.
        let model = Mlp::new(&[4, 6, 2]);
        let cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
        let mut trainer = PipelineTrainer::new(&model, cfg, 7);
        // Sequential reference with identical init.
        let mut rng = StdRng::seed_from_u64(7);
        let mut ref_params = vec![0.0; model.param_len()];
        model.init_params(&mut ref_params, &mut rng);
        assert_eq!(trainer.params(), ref_params.as_slice());
        let (micro, w) = blob_micro(1, 2, 4);
        for _ in 0..5 {
            trainer.train_minibatch(&micro, &w);
            // Reference: weighted mean of per-microbatch gradients.
            let mut grad = vec![0.0f32; model.param_len()];
            for (b, &wn) in micro.iter().zip(w.iter()) {
                let (_, cache) = model.forward_loss(&ref_params, b);
                let g = model.backward(&ref_params, &cache);
                for (acc, &gi) in grad.iter_mut().zip(g.iter()) {
                    *acc += wn * gi;
                }
            }
            for (p, g) in ref_params.iter_mut().zip(grad.iter()) {
                *p -= 0.05 * g;
            }
        }
        for (a, b) in trainer.params().iter().zip(ref_params.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn pipemare_first_step_matches_sync_then_diverges_from_it() {
        // At t = 0 all versions clamp to 0, so step 0 equals the sync
        // step; afterwards delayed reads differ.
        let model = Mlp::new(&[4, 6, 2]);
        let mk = |method| {
            let mut cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
            cfg.mode = TrainMode::Pipeline(method);
            cfg
        };
        let mut sync = PipelineTrainer::new(&model, mk(Method::GPipe), 3);
        let mut asyn = PipelineTrainer::new(&model, mk(Method::PipeMare), 3);
        let (micro, w) = blob_micro(2, 2, 4);
        sync.train_minibatch(&micro, &w);
        asyn.train_minibatch(&micro, &w);
        assert_eq!(sync.params(), asyn.params(), "step 0 must coincide");
        for _ in 0..4 {
            sync.train_minibatch(&micro, &w);
            asyn.train_minibatch(&micro, &w);
        }
        assert_ne!(sync.params(), asyn.params(), "delayed reads must change training");
    }

    #[test]
    fn pipedream_differs_from_both_gpipe_and_pipemare() {
        let model = Mlp::new(&[4, 6, 2]);
        let mk = |method| {
            let mut cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
            cfg.mode = TrainMode::Pipeline(method);
            cfg
        };
        let run = |method| {
            let mut tr = PipelineTrainer::new(&model, mk(method), 3);
            let (micro, w) = blob_micro(2, 2, 4);
            for _ in 0..6 {
                tr.train_minibatch(&micro, &w);
            }
            tr.params().to_vec()
        };
        let g = run(Method::GPipe);
        let d = run(Method::PipeDream);
        let m = run(Method::PipeMare);
        assert_ne!(g, d);
        assert_ne!(d, m);
    }

    #[test]
    fn warmup_steps_run_synchronously() {
        // With warmup covering the whole run, PipeMare equals GPipe.
        let model = Mlp::new(&[4, 6, 2]);
        let mut cfg = TrainConfig::pipemare(
            3,
            2,
            sgd(),
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(10),
            0.135,
        );
        cfg.warmup_steps = 100;
        let mut pm = PipelineTrainer::new(&model, cfg, 5);
        let mut gp = PipelineTrainer::new(
            &model,
            TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05))),
            5,
        );
        let (micro, w) = blob_micro(4, 2, 4);
        for _ in 0..8 {
            pm.train_minibatch(&micro, &w);
            gp.train_minibatch(&micro, &w);
        }
        assert_eq!(pm.params(), gp.params());
        assert!(pm.in_warmup());
    }

    #[test]
    fn t1_shrinks_early_steps() {
        // With T1, early async steps move early-stage weights less.
        let model = Mlp::new(&[4, 6, 2]);
        let base = |t1| {
            let mut cfg = TrainConfig::gpipe(3, 1, sgd(), Box::new(ConstantLr(0.1)));
            cfg.mode = TrainMode::Pipeline(Method::PipeMare);
            cfg.t1 = t1;
            cfg
        };
        let (micro, w) = blob_micro(5, 1, 8);
        let step_of = |cfg| {
            let mut tr = PipelineTrainer::new(&model, cfg, 9);
            let before = tr.params().to_vec();
            tr.train_minibatch(&micro, &w);
            let after = tr.params().to_vec();
            // Stage 0 range:
            let (lo, hi) = tr.partition().range(0);
            before[lo..hi]
                .iter()
                .zip(after[lo..hi].iter())
                .map(|(a, b)| (a - b).abs() as f64)
                .sum::<f64>()
        };
        let plain = step_of(base(None));
        let rescheduled = step_of(base(Some(T1Rescheduler::new(100))));
        // τ_fwd of stage 0 with P = 3, N = 1 is 5 → first step / 5.
        assert!(
            rescheduled < plain * 0.5,
            "T1 should shrink the first step: {rescheduled} vs {plain}"
        );
    }

    #[test]
    fn t2_changes_training_trajectory() {
        let model = Mlp::new(&[4, 6, 2]);
        let run = |t2: Option<f64>| {
            let mut cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
            cfg.mode = TrainMode::Pipeline(Method::PipeMare);
            cfg.t2_decay = t2;
            let mut tr = PipelineTrainer::new(&model, cfg, 3);
            let (micro, w) = blob_micro(2, 2, 4);
            for _ in 0..6 {
                tr.train_minibatch(&micro, &w);
            }
            tr.params().to_vec()
        };
        assert_ne!(run(None), run(Some(0.5)));
    }

    #[test]
    fn divergence_is_detected_and_latched() {
        // An absurd learning rate blows up the weights; the trainer must
        // flag it and stop updating.
        let model = Mlp::new(&[4, 6, 2]);
        let cfg = TrainConfig::naive_async(3, 1, sgd(), Box::new(ConstantLr(1e8)));
        let mut tr = PipelineTrainer::new(&model, cfg, 3);
        let (micro, w) = blob_micro(2, 1, 4);
        let mut saw_divergence = false;
        for _ in 0..20 {
            let stats = tr.train_minibatch(&micro, &w);
            if stats.diverged {
                saw_divergence = true;
                break;
            }
        }
        assert!(saw_divergence, "expected divergence under lr = 1e8");
        assert!(tr.diverged());
        // Parameters stay finite (last good version preserved).
        assert!(tr.params().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn stage_report_reflects_configuration() {
        let model = Mlp::new(&[4, 6, 2]);
        let cfg = TrainConfig::pipemare(
            2,
            2,
            sgd(),
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(10),
            0.135,
        );
        let tr = PipelineTrainer::new(&model, cfg, 1);
        let (cfg, layout) = (tr.driver.config(), tr.driver.layout());
        let taus = |s| cfg.nominal_taus(&layout.clock, s);
        assert_eq!(cfg.stages, 2);
        // P = 2, N = 2: τ_fwd = 1.5 and 0.5; PipeMare τ_bkwd = 0.
        assert!((taus(0).0 - 1.5).abs() < 1e-12);
        assert!((taus(1).0 - 0.5).abs() < 1e-12);
        assert_eq!(taus(0).1, 0.0);
        // T2 active: γ = D^{1/τ}.
        assert!((layout.stage_cfgs[0].gamma - 0.135f64.powf(1.0 / 1.5)).abs() < 1e-9);
        // Params cover the model.
        let total: usize = layout.partition.ranges().iter().map(|(lo, hi)| hi - lo).sum();
        assert_eq!(total, model.param_len());
        // GPipe report shows zero delays.
        let g = PipelineTrainer::new(
            &model,
            TrainConfig::gpipe(2, 2, sgd(), Box::new(ConstantLr(0.05))),
            1,
        );
        let (cfg, layout) = (g.driver.config(), g.driver.layout());
        assert!((0..cfg.stages).all(|s| cfg.nominal_taus(&layout.clock, s) == (0.0, 0.0)));
    }

    #[test]
    fn state_roundtrip_resumes_async_run_bit_identically() {
        use crate::checkpoint::{load_state, save_state};
        // Full feature load: PipeMare + T1 + T2 + recompute + momentum,
        // so the snapshot must carry δ and the moment buffer to resume.
        let model = Mlp::new(&[4, 6, 2]);
        let mk = || {
            let mut cfg = TrainConfig::pipemare(
                3,
                2,
                OptimizerKind::resnet_momentum(1e-4),
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(20),
                0.135,
            );
            cfg.recompute = Some(RecomputeCfg::new(2).with_t2());
            cfg
        };
        let (micro, w) = blob_micro(8, 2, 4);
        let mut full = PipelineTrainer::new(&model, mk(), 13);
        for _ in 0..6 {
            full.train_minibatch(&micro, &w);
        }
        let path =
            std::env::temp_dir().join(format!("pipemare_trainer_state_{}", std::process::id()));
        save_state(&path, &full.state()).unwrap();
        let state = load_state(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.stages.len(), 3, "one state per stage");
        for stage in &state.stages {
            assert!(stage.delta.iter().any(|&d| d != 0.0), "δ must survive the round trip");
            assert!(stage.opt_m.iter().any(|&m| m != 0.0), "momentum must survive");
        }
        assert!(state.stages[0].window.len() > 1, "async resume needs the version window");
        let mut resumed = PipelineTrainer::new(&model, mk(), 99);
        resumed.restore(state).expect("the same configuration");
        assert_eq!(resumed.steps_done(), 6);
        for _ in 0..6 {
            let a = full.train_minibatch(&micro, &w);
            let b = resumed.train_minibatch(&micro, &w);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(full.params(), resumed.params());
        }
    }

    #[test]
    fn restoring_a_state_that_does_not_fit_is_an_error_not_a_panic() {
        let model = Mlp::new(&[4, 6, 2]);
        let mk = |stages| TrainConfig::naive_async(stages, 2, sgd(), Box::new(ConstantLr(0.05)));
        let (micro, w) = blob_micro(8, 2, 4);
        let mut three = PipelineTrainer::new(&model, mk(3), 13);
        three.train_minibatch(&micro, &w);
        let state = three.state();
        // Another pipeline: a 3-stage state into a 4-stage trainer.
        let mut four = PipelineTrainer::new(&model, mk(4), 13);
        assert!(matches!(four.restore(state.clone()), Err(CheckpointError::Mismatch(_))));
        // Another optimizer: no moment buffer where one is expected.
        let mut cfg = mk(3);
        cfg.optimizer = OptimizerKind::resnet_momentum(1e-4);
        let mut momentum = PipelineTrainer::new(&model, cfg, 13);
        assert!(matches!(momentum.restore(state.clone()), Err(CheckpointError::Mismatch(_))));
        // A header out of step with its windows.
        let mut skewed = state.clone();
        skewed.step += 1;
        let mut same = PipelineTrainer::new(&model, mk(3), 13);
        assert!(matches!(same.restore(skewed), Err(CheckpointError::Mismatch(_))));
        assert!(PipelineTrainer::new(&model, mk(3), 13).restore(state).is_ok());
    }

    #[test]
    fn app_d_gamma_widens_gap_at_late_stages() {
        // P = 4, N = 2, two segments of size 2. Stage 3: τ_fwd = 0.5 but
        // τ_recomp = 2(2 − 1)/2 = 1.0 → the recompute discrepancy
        // dominates and γ must follow it (App. D).
        let model = Mlp::new(&[4, 6, 2]);
        let mk = |rc: Option<RecomputeCfg>| {
            let mut cfg = TrainConfig::pipemare(
                4,
                2,
                sgd(),
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(20),
                0.135,
            );
            cfg.recompute = rc;
            cfg
        };
        let plain = PipelineTrainer::new(&model, mk(None), 1);
        let rc = PipelineTrainer::new(&model, mk(Some(RecomputeCfg::new(2).with_t2())), 1);
        let uncorrected = PipelineTrainer::new(&model, mk(Some(RecomputeCfg::new(2))), 1);
        let g = |tr: &PipelineTrainer<Mlp>| {
            tr.driver.layout().stage_cfgs.iter().map(|c| c.gamma).collect::<Vec<_>>()
        };
        // Early stages: τ_fwd dominates, γ unchanged. Stage 0 has
        // τ_fwd = 3.5 vs τ_recomp = 2.0.
        assert_eq!(g(&plain)[0], g(&rc)[0]);
        // Last stage: τ_recomp = 1.0 > τ_fwd = 0.5.
        assert!((g(&rc)[3] - 0.135f64.powf(1.0 / 1.0)).abs() < 1e-12);
        assert!((g(&plain)[3] - 0.135f64.powf(1.0 / 0.5)).abs() < 1e-12);
        // Without the rc.t2 flag the gap stays τ_fwd.
        assert_eq!(g(&plain), g(&uncorrected));
    }

    #[test]
    fn hogwild_mode_trains() {
        use pipemare_pipeline::HogwildDelays;
        let model = Mlp::new(&[4, 6, 2]);
        let mut cfg = TrainConfig::gpipe(3, 1, sgd(), Box::new(ConstantLr(0.02)));
        cfg.mode = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(3, 1));
        let mut tr = PipelineTrainer::new(&model, cfg, 11);
        let (micro, w) = blob_micro(6, 1, 8);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let stats = tr.train_minibatch(&micro, &w);
            first_loss.get_or_insert(stats.loss);
            last_loss = stats.loss;
        }
        assert!(!tr.diverged());
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "hogwild failed to learn: {first_loss:?} -> {last_loss}"
        );
    }
}
