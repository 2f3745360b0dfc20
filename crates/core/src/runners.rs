//! End-to-end training loops with per-epoch evaluation.

use std::fmt;

use pipemare_comms::TrainConfig;
use pipemare_data::{
    corpus_bleu, split_microbatches, ImageDataset, MinibatchIter, RegressionDataset,
    TranslationDataset,
};
use pipemare_nn::{
    CifarResNet, ImageBatch, LinearRegression, Mlp, RegressionBatch, TrainModel, Transformer,
};
use pipemare_tensor::Tensor;

use crate::health::HealthHook;
use crate::metrics::TrainerMetrics;
use crate::stats::{epoch_time, EpochRecord, RunHistory};
use crate::trainer::PipelineTrainer;

/// A classifier whose accuracy can be evaluated (implemented for the
/// image models in this workspace).
pub trait ClassifierModel: TrainModel<Batch = ImageBatch> {
    /// Top-1 accuracy (fraction in `[0, 1]`) on a labelled batch.
    fn eval_accuracy(&self, params: &[f32], batch: &ImageBatch) -> f32;
}

impl ClassifierModel for Mlp {
    fn eval_accuracy(&self, params: &[f32], batch: &ImageBatch) -> f32 {
        self.accuracy(params, batch)
    }
}

impl ClassifierModel for CifarResNet {
    fn eval_accuracy(&self, params: &[f32], batch: &ImageBatch) -> f32 {
        self.accuracy(params, batch)
    }
}

/// A dataset an epoch run trains `M` on and scores it with.
pub trait Task<M: TrainModel> {
    /// Training samples in one epoch.
    fn train_len(&self) -> usize;

    /// The microbatch of the given training samples.
    fn batch(&self, indices: &[usize]) -> M::Batch;

    /// Scores parameters on at most `eval_n` test samples. Built once
    /// per run and called after every epoch.
    fn scorer<'a>(&'a self, model: &'a M, eval_n: usize) -> impl Fn(&[f32]) -> f32 + 'a;
}

/// Image classification, scored by top-1 test accuracy (%).
impl<M: ClassifierModel> Task<M> for ImageDataset {
    fn train_len(&self) -> usize {
        ImageDataset::train_len(self)
    }

    fn batch(&self, indices: &[usize]) -> ImageBatch {
        let (x, y) = self.train_batch(indices);
        ImageBatch { x, y }
    }

    fn scorer<'a>(&'a self, model: &'a M, eval_n: usize) -> impl Fn(&[f32]) -> f32 + 'a {
        let cap = eval_n.min(self.test_y.len());
        let eval = ImageBatch { x: self.test_x.slice0(0, cap), y: self.test_y[..cap].to_vec() };
        move |params| 100.0 * model.eval_accuracy(params, &eval)
    }
}

/// Translation, scored by corpus BLEU of greedy decodes.
impl Task<Transformer> for TranslationDataset {
    fn train_len(&self) -> usize {
        TranslationDataset::train_len(self)
    }

    fn batch(&self, indices: &[usize]) -> <Transformer as TrainModel>::Batch {
        TranslationDataset::batch(self, indices)
    }

    fn scorer<'a>(&'a self, model: &'a Transformer, eval_n: usize) -> impl Fn(&[f32]) -> f32 + 'a {
        let n = eval_n.min(self.test_src.len());
        move |params| {
            let hyps: Vec<Vec<usize>> = self.test_src[..n]
                .iter()
                .map(|src| model.greedy_decode(params, src, self.max_len + 2))
                .collect();
            corpus_bleu(&hyps, &self.test_tgt[..n])
        }
    }
}

/// What an epoch run does besides the model, data and configuration.
/// The default attaches no observers.
#[derive(Default)]
pub struct RunSpec {
    /// Passes over the training set.
    pub epochs: usize,
    /// Samples per minibatch; the last minibatch of an epoch holds the
    /// remainder.
    pub minibatch: usize,
    /// Leading epochs run synchronously (T3).
    pub warmup_epochs: usize,
    /// Test samples scored after each epoch (capped at the test set).
    pub eval_n: usize,
    /// Seeds the trainer and the minibatch shuffle.
    pub seed: u64,
    /// Instruments attached to the trainer for the whole run.
    pub metrics: Option<TrainerMetrics>,
    /// Health monitor and alarms observing every optimizer step. If its
    /// halt policy stops the run, the history's `halted` flag is set and
    /// the loop exits early. Keep `Arc` clones of the hook's monitor and
    /// alert log to read the margins and what fired afterwards.
    pub health: Option<HealthHook>,
}

/// Why a run refused to start. Every check runs before the first step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A minibatch holds fewer samples than the `N` microbatches it must
    /// fill.
    ShortMinibatch {
        /// Samples in the minibatch.
        len: usize,
        /// Microbatches per minibatch.
        n_micro: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ShortMinibatch { len, n_micro } => {
                write!(f, "minibatch of {len} samples cannot fill {n_micro} microbatches")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Errs unless a minibatch of `len` samples fills `n_micro`
/// microbatches.
fn fills(len: usize, n_micro: usize) -> Result<(), RunError> {
    if len < n_micro {
        return Err(RunError::ShortMinibatch { len, n_micro });
    }
    Ok(())
}

fn micro_weights(micro: &[Vec<usize>]) -> Vec<f32> {
    let total: usize = micro.iter().map(|m| m.len()).sum();
    micro.iter().map(|m| m.len() as f32 / total as f32).collect()
}

/// The one epoch loop: `spec.epochs` shuffled passes over `data`'s
/// training set in minibatches of `spec.minibatch`, each split into the
/// configuration's `N` microbatches, with `data`'s scorer evaluating the
/// parameters after every epoch. The first `spec.warmup_epochs` run T3.
///
/// # Errors
///
/// [`RunError::ShortMinibatch`] before the first step if a minibatch
/// (the full ones or the last, short one) cannot fill `N` microbatches.
pub fn run<M: TrainModel, D: Task<M>>(
    model: &M,
    data: &D,
    mut cfg: TrainConfig,
    spec: RunSpec,
) -> Result<RunHistory, RunError> {
    let RunSpec { epochs, minibatch, warmup_epochs, eval_n, seed, metrics, health } = spec;
    let train_len = data.train_len();
    let n_micro = cfg.n_micro;
    // Every minibatch is full but the last, which holds the remainder.
    fills(minibatch, n_micro)?;
    let short = train_len % minibatch;
    if short > 0 {
        fills(short, n_micro)?;
    }
    let score = data.scorer(model, eval_n);
    let mut it = MinibatchIter::new(train_len, minibatch, seed);
    let steps_per_epoch = it.batches_per_epoch();
    cfg.warmup_steps = warmup_epochs * steps_per_epoch;
    let label = run_label(&cfg);
    let method = cfg.mode.method();
    let mut trainer = PipelineTrainer::new(model, cfg, seed);
    if let Some(m) = metrics {
        trainer.set_metrics(m);
    }
    if let Some(h) = health {
        trainer.set_health(h);
    }
    let mut history = RunHistory { label, ..Default::default() };
    let mut time = 0.0f64;
    for epoch in 0..epochs {
        let mut loss_sum = 0.0f32;
        let mut last_norm = 0.0f32;
        for _ in 0..steps_per_epoch {
            let chunks = split_microbatches(&it.next_batch(), n_micro);
            let micro: Vec<M::Batch> = chunks.iter().map(|c| data.batch(c)).collect();
            let stats = trainer.train_minibatch(&micro, &micro_weights(&chunks));
            loss_sum += stats.loss;
            last_norm = stats.param_norm;
            let param_norm = if stats.diverged {
                history.diverged = true;
                f32::INFINITY
            } else if trainer.health_halted() {
                history.halted = true;
                last_norm
            } else {
                continue;
            };
            let (train_loss, metric) = (f32::NAN, 0.0);
            history.epochs.push(EpochRecord { epoch, train_loss, metric, time, param_norm });
            return Ok(history);
        }
        // A Hogwild epoch costs what an asynchronous pipeline epoch does.
        time += method.map_or(1.0, |m| epoch_time(m, epoch < warmup_epochs));
        history.epochs.push(EpochRecord {
            epoch,
            train_loss: loss_sum / steps_per_epoch as f32,
            metric: score(trainer.params()),
            time,
            param_norm: last_norm,
        });
    }
    Ok(history)
}

fn run_label(cfg: &TrainConfig) -> String {
    let mode = cfg.mode.method().map_or("Hogwild", |m| m.name());
    let mut tags = Vec::new();
    if cfg.t1.is_some() {
        tags.push("T1");
    }
    if cfg.t2_decay.is_some() {
        tags.push("T2");
    }
    if cfg.warmup_steps > 0 {
        tags.push("T3");
    }
    match cfg.recompute {
        Some(rc) if rc.t2 => tags.push("RC*"),
        Some(_) => tags.push("RC"),
        None => {}
    }
    if tags.is_empty() {
        mode.to_string()
    } else {
        format!("{mode}+{}", tags.join("+"))
    }
}

/// Trains linear regression for `steps` optimizer steps at full batch,
/// returning the loss trace and whether the run diverged (used by the
/// Figure 3(b) heatmap). The loop also exits early when the optional
/// [`HealthHook`]'s halt policy fires; its alert log records what
/// fired.
///
/// # Errors
///
/// [`RunError::ShortMinibatch`] before the first step if the dataset
/// cannot fill `N` microbatches.
pub fn run_regression_training(
    model: &LinearRegression,
    ds: &RegressionDataset,
    cfg: TrainConfig,
    steps: usize,
    seed: u64,
    health: Option<HealthHook>,
) -> Result<(Vec<f32>, bool), RunError> {
    let (n, n_micro) = (ds.len(), cfg.n_micro);
    fills(n, n_micro)?;
    let mut trainer = PipelineTrainer::new(model, cfg, seed);
    if let Some(h) = health {
        trainer.set_health(h);
    }
    let idx: Vec<usize> = (0..n).collect();
    let chunks = split_microbatches(&idx, n_micro);
    let weights = micro_weights(&chunks);
    let micro: Vec<RegressionBatch> = chunks
        .iter()
        .map(|c| {
            let d = ds.x.shape()[1];
            let mut x = Tensor::zeros(&[c.len(), d]);
            let mut y = Tensor::zeros(&[c.len()]);
            for (k, &i) in c.iter().enumerate() {
                x.data_mut()[k * d..(k + 1) * d].copy_from_slice(&ds.x.data()[i * d..(i + 1) * d]);
                y.data_mut()[k] = ds.y.data()[i];
            }
            RegressionBatch { x, y }
        })
        .collect();
    let mut losses = Vec::with_capacity(steps);
    for _ in 0..steps {
        let stats = trainer.train_minibatch(&micro, &weights);
        losses.push(stats.loss);
        if stats.diverged {
            return Ok((losses, true));
        }
        if trainer.health_halted() {
            break;
        }
    }
    Ok((losses, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrainMode;
    use pipemare_data::{cpusmall_like, SyntheticImages, SyntheticTranslation};
    use pipemare_nn::{ResNetConfig, TransformerConfig};
    use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
    use pipemare_pipeline::Method;
    use pipemare_theory::lemma1_max_alpha_frac;

    fn sgd() -> OptimizerKind {
        OptimizerKind::Sgd { weight_decay: 0.0 }
    }

    #[test]
    fn mlp_gpipe_learns_synthetic_images() {
        let ds = SyntheticImages::cifar_like(60, 40, 1).generate();
        let model = Mlp::new(&[3 * 16 * 16, 32, 10]);
        let cfg = TrainConfig::gpipe(4, 2, sgd(), Box::new(ConstantLr(0.02)));
        let spec = RunSpec { epochs: 6, minibatch: 20, eval_n: 40, seed: 3, ..RunSpec::default() };
        let h = run(&model, &ds, cfg, spec).unwrap();
        assert!(!h.diverged);
        assert!(h.best_metric() > 50.0, "accuracy too low: {} (chance = 10%)", h.best_metric());
        // Time advances by the GPipe penalty each epoch.
        assert!(h.epochs[1].time > h.epochs[0].time);
    }

    #[test]
    fn pipemare_t1_learns_where_naive_async_struggles() {
        // Small CNN with an aggressive LR: naive async at many stages
        // degrades or diverges; T1 rescues it.
        // At one weight unit per stage (P = 19) and lr = 0.8, naive async
        // sits above its stability threshold while T1's rescheduled range
        // still covers it (measured: naive diverges at ~37% accuracy,
        // T1 reaches ~97%).
        let ds = SyntheticImages::cifar_like(60, 40, 2).generate();
        let model = CifarResNet::new(ResNetConfig::tiny(10));
        let stages = model.weight_units().len();
        let naive = TrainConfig::naive_async(stages, 2, sgd(), Box::new(ConstantLr(0.8)));
        let spec =
            || RunSpec { epochs: 5, minibatch: 20, eval_n: 40, seed: 5, ..RunSpec::default() };
        let h_naive = run(&model, &ds, naive, spec()).unwrap();
        let mut pm = TrainConfig::naive_async(stages, 2, sgd(), Box::new(ConstantLr(0.8)));
        pm.t1 = Some(T1Rescheduler::new(40));
        let h_pm = run(&model, &ds, pm, spec()).unwrap();
        assert!(h_naive.diverged, "naive async should diverge at lr 0.8 with {stages} stages");
        assert!(!h_pm.diverged, "T1 run should not diverge");
        assert!(
            h_pm.best_metric() > h_naive.best_metric(),
            "T1 {} should beat diverging naive {}",
            h_pm.best_metric(),
            h_naive.best_metric()
        );
    }

    #[test]
    fn transformer_overfits_tiny_translation_task() {
        // Sentences must be ≥ 5 tokens so BLEU-4 has 4-grams to match.
        let ds = SyntheticTranslation {
            vocab: 8,
            min_len: 5,
            max_len: 6,
            train: 24,
            test: 8,
            reverse: true,
            seed: 3,
        }
        .generate();
        let model = Transformer::new(TransformerConfig::tiny(ds.total_vocab, ds.total_vocab));
        let cfg = TrainConfig::gpipe(
            4,
            2,
            OptimizerKind::transformer_adamw(0.0),
            Box::new(ConstantLr(3e-3)),
        );
        let spec = RunSpec { epochs: 30, minibatch: 8, eval_n: 8, seed: 5, ..RunSpec::default() };
        let h = run(&model, &ds, cfg, spec).unwrap();
        assert!(!h.diverged);
        assert!(h.best_metric() > 25.0, "BLEU too low: {}", h.best_metric());
    }

    #[test]
    fn regression_stability_matches_lemma1() {
        // The Figure 3(b) mechanism: with P stages and N = 1, the worst
        // delay is τ = 2P−1; α below the Lemma 1 bound (at the dataset's
        // top curvature) converges, α far above diverges.
        let ds = cpusmall_like(64, 7);
        let model = LinearRegression::new(12);
        let p = 4;
        let tau = (2 * p - 1) as f64;
        let bound = lemma1_max_alpha_frac(ds.max_curvature as f64, tau) as f32;
        let run = |alpha: f32| {
            let mut cfg = TrainConfig::gpipe(p, 1, sgd(), Box::new(ConstantLr(alpha)));
            cfg.mode = TrainMode::Pipeline(Method::PipeMare);
            run_regression_training(&model, &ds, cfg, 3000, 1, None).unwrap()
        };
        let (losses_ok, div_ok) = run(0.5 * bound);
        // Divergence control: above even the zero-delay stability limit
        // 2/λ, so it must blow up regardless of which stage holds the
        // top-curvature features.
        let (_, div_bad) = run(3.0 / ds.max_curvature);
        assert!(!div_ok, "below-bound run diverged");
        let tail = losses_ok[losses_ok.len() - 10..].iter().sum::<f32>() / 10.0;
        let head = losses_ok[..10.min(losses_ok.len())].iter().sum::<f32>() / 10.0;
        assert!(tail < head, "below-bound run failed to descend: {head} -> {tail}");
        assert!(div_bad, "above-2/λ run should diverge");
    }

    #[test]
    fn labels_reflect_techniques() {
        let mut cfg = TrainConfig::pipemare(
            4,
            2,
            sgd(),
            Box::new(ConstantLr(0.1)),
            T1Rescheduler::new(10),
            0.135,
        );
        cfg.warmup_steps = 5;
        assert_eq!(run_label(&cfg), "PipeMare+T1+T2+T3");
        cfg.recompute = Some(crate::RecomputeCfg::new(2));
        assert_eq!(run_label(&cfg), "PipeMare+T1+T2+T3+RC");
        cfg.recompute = Some(crate::RecomputeCfg::new(2).with_t2());
        assert_eq!(run_label(&cfg), "PipeMare+T1+T2+T3+RC*");
        let g = TrainConfig::gpipe(4, 2, sgd(), Box::new(ConstantLr(0.1)));
        assert_eq!(run_label(&g), "GPipe");
    }
}
