//! End-to-end training loops with per-epoch evaluation.

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

/// Panics unless a minibatch of `len` samples fills `n_micro`
/// microbatches.
fn assert_fills(len: usize, n_micro: usize) {
    assert!(len >= n_micro, "minibatch of {len} samples cannot fill {n_micro} microbatches");
}

fn micro_weights(micro: &[Vec<usize>]) -> Vec<f32> {
    let total: usize = micro.iter().map(|m| m.len()).sum();
    micro.iter().map(|m| m.len() as f32 / total as f32).collect()
}

/// The one epoch loop: `epochs` shuffled passes over `train_len`
/// samples in minibatches of `minibatch`, each split into the trainer's
/// `N` microbatches built by `batch`, with `score` evaluating the
/// parameters after every epoch. The first `warmup_epochs` run T3.
#[allow(clippy::too_many_arguments)]
fn run_epochs<M: TrainModel>(
    model: &M,
    mut cfg: TrainConfig,
    seed: u64,
    epochs: usize,
    minibatch: usize,
    warmup_epochs: usize,
    train_len: usize,
    metrics: Option<TrainerMetrics>,
    health: Option<HealthHook>,
    batch: impl Fn(&[usize]) -> M::Batch,
    score: impl Fn(&[f32]) -> f32,
) -> RunHistory {
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
    let n_micro = trainer.clock().n_micro;
    // Every minibatch is full but the last, which holds the remainder.
    assert_fills(minibatch, n_micro);
    let short = train_len % minibatch;
    if short > 0 {
        assert_fills(short, n_micro);
    }
    let mut history = RunHistory { label, ..Default::default() };
    let mut time = 0.0f64;
    for epoch in 0..epochs {
        let mut loss_sum = 0.0f32;
        let mut last_norm = 0.0f32;
        for _ in 0..steps_per_epoch {
            let chunks = split_microbatches(&it.next_batch(), n_micro);
            let micro: Vec<M::Batch> = chunks.iter().map(|c| batch(c)).collect();
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
            return history;
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
    history
}

/// Trains an image classifier for `epochs` epochs, evaluating top-1 test
/// accuracy (%) after each epoch. `eval_cap` bounds evaluation cost.
#[allow(clippy::too_many_arguments)]
pub fn run_image_training<M: ClassifierModel>(
    model: &M,
    ds: &ImageDataset,
    cfg: TrainConfig,
    epochs: usize,
    minibatch: usize,
    warmup_epochs: usize,
    eval_cap: usize,
    seed: u64,
) -> RunHistory {
    run_image_training_observed(
        model,
        ds,
        cfg,
        epochs,
        minibatch,
        warmup_epochs,
        eval_cap,
        seed,
        None,
        None,
    )
}

/// [`run_image_training`] with optional [`TrainerMetrics`] instruments
/// and an optional [`HealthHook`] attached to the trainer for the whole
/// run. The health monitor observes every optimizer step; if its halt
/// policy stops the run, the history's `halted` flag is set and the
/// epoch loop exits early. Keep an `Arc` clone of the hook's monitor to
/// build the [`pipemare_telemetry::RunReport`] afterwards.
///
/// # Panics
///
/// Before the first step, if a minibatch (the full ones or the last,
/// short one) holds fewer samples than the configuration's `N`
/// microbatches.
#[allow(clippy::too_many_arguments)]
pub fn run_image_training_observed<M: ClassifierModel>(
    model: &M,
    ds: &ImageDataset,
    cfg: TrainConfig,
    epochs: usize,
    minibatch: usize,
    warmup_epochs: usize,
    eval_cap: usize,
    seed: u64,
    metrics: Option<TrainerMetrics>,
    health: Option<HealthHook>,
) -> RunHistory {
    let (test_x, test_y) = ds.test_batch();
    let cap = eval_cap.min(test_y.len());
    let eval_batch = ImageBatch { x: test_x.slice0(0, cap), y: test_y[..cap].to_vec() };
    run_epochs(
        model,
        cfg,
        seed,
        epochs,
        minibatch,
        warmup_epochs,
        ds.train_len(),
        metrics,
        health,
        |c| {
            let (x, y) = ds.train_batch(c);
            ImageBatch { x, y }
        },
        |params| 100.0 * model.eval_accuracy(params, &eval_batch),
    )
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

/// Trains a Transformer on a translation dataset, evaluating corpus BLEU
/// on `bleu_eval_n` test sentences (greedy decoding) after each epoch.
#[allow(clippy::too_many_arguments)]
pub fn run_translation_training(
    model: &Transformer,
    ds: &TranslationDataset,
    cfg: TrainConfig,
    epochs: usize,
    sentences_per_minibatch: usize,
    warmup_epochs: usize,
    bleu_eval_n: usize,
    seed: u64,
) -> RunHistory {
    let eval_n = bleu_eval_n.min(ds.test_src.len());
    let refs = &ds.test_tgt[..eval_n];
    run_epochs(
        model,
        cfg,
        seed,
        epochs,
        sentences_per_minibatch,
        warmup_epochs,
        ds.train_len(),
        None,
        None,
        |c| ds.batch(c),
        |params| {
            let hyps: Vec<Vec<usize>> = ds.test_src[..eval_n]
                .iter()
                .map(|src| model.greedy_decode(params, src, ds.max_len + 2))
                .collect();
            corpus_bleu(&hyps, refs)
        },
    )
}

/// Trains linear regression for `steps` optimizer steps at full batch,
/// returning the loss trace (used by the Figure 3(b) heatmap).
pub fn run_regression_training(
    model: &LinearRegression,
    ds: &RegressionDataset,
    cfg: TrainConfig,
    steps: usize,
    seed: u64,
) -> (Vec<f32>, bool) {
    run_regression_training_observed(model, ds, cfg, steps, seed, None)
}

/// [`run_regression_training`] with an optional [`HealthHook`]. The loop
/// exits early when the hook's halt policy fires (in addition to the
/// usual divergence exit); query the hook's monitor for the verdicts.
pub fn run_regression_training_observed(
    model: &LinearRegression,
    ds: &RegressionDataset,
    cfg: TrainConfig,
    steps: usize,
    seed: u64,
    health: Option<HealthHook>,
) -> (Vec<f32>, bool) {
    let mut trainer = PipelineTrainer::new(model, cfg, seed);
    if let Some(h) = health {
        trainer.set_health(h);
    }
    let n_micro = trainer.clock().n_micro;
    let n = ds.len();
    assert_fills(n, n_micro);
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
            return (losses, true);
        }
        if trainer.health_halted() {
            break;
        }
    }
    (losses, false)
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
        let h = run_image_training(&model, &ds, cfg, 6, 20, 0, 40, 3);
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
        let h_naive = run_image_training(&model, &ds, naive, 5, 20, 0, 40, 5);
        let mut pm = TrainConfig::naive_async(stages, 2, sgd(), Box::new(ConstantLr(0.8)));
        pm.t1 = Some(T1Rescheduler::new(40));
        let h_pm = run_image_training(&model, &ds, pm, 5, 20, 0, 40, 5);
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
        let h = run_translation_training(&model, &ds, cfg, 30, 8, 0, 8, 5);
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
            run_regression_training(&model, &ds, cfg, 3000, 1)
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
