//! Standard experiment workloads shared by the claims ledger's rows.
//!
//! The paper's four tasks map to four synthetic stand-ins (DESIGN.md §4);
//! the builders here fix their sizes and the per-task hyperparameters
//! (mirroring the paper's Tables 6–7 at reproduction scale) so every
//! experiment sees identical setups.

use pipemare_core::{run, RunHistory, RunSpec, TrainConfig};
use pipemare_data::{ImageDataset, SyntheticImages, SyntheticTranslation, TranslationDataset};
use pipemare_nn::{CifarResNet, ResNetConfig, Transformer, TransformerConfig};
use pipemare_optim::{InverseSqrtLr, LrSchedule, OptimizerKind, StepDecayLr, T1Rescheduler};
use pipemare_pipeline::Method;

/// The CIFAR10-like image workload.
pub struct ImageWorkload {
    /// Dataset.
    pub ds: ImageDataset,
    /// Model.
    pub model: CifarResNet,
    /// Pipeline stages `P`.
    pub stages: usize,
    /// Microbatches per minibatch `N`.
    pub n_micro: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Evaluation cap (test samples used).
    pub eval_cap: usize,
    /// Seed.
    pub seed: u64,
    /// Base LR.
    pub base_lr: f32,
    /// LR drop interval in steps.
    pub drop_every: usize,
    /// T1 annealing steps.
    pub t1_steps: usize,
}

impl ImageWorkload {
    /// The standard CIFAR-like setup (Table 6 analog at bench scale).
    pub fn cifar_like() -> Self {
        let ds = SyntheticImages::cifar_like(160, 80, 42).generate();
        let model = CifarResNet::new(ResNetConfig::resnet50_standin(10));
        let minibatch = 20;
        let epochs = 8;
        let steps_per_epoch = 160usize.div_ceil(minibatch);
        ImageWorkload {
            ds,
            model,
            stages: 16,
            n_micro: 2,
            epochs,
            minibatch,
            eval_cap: 80,
            seed: 3,
            base_lr: 0.02,
            drop_every: 6 * steps_per_epoch,
            t1_steps: 2 * steps_per_epoch,
        }
    }

    /// The larger ImageNet-like setup (more classes, noisier).
    pub fn imagenet_like() -> Self {
        let ds = SyntheticImages::imagenet_like(200, 100, 7).generate();
        let model = CifarResNet::new(ResNetConfig::resnet50_standin(20));
        let minibatch = 25;
        let epochs = 8;
        let steps_per_epoch = 200usize.div_ceil(minibatch);
        ImageWorkload {
            ds,
            model,
            stages: 16,
            n_micro: 2,
            epochs,
            minibatch,
            eval_cap: 100,
            seed: 9,
            base_lr: 0.02,
            drop_every: 6 * steps_per_epoch,
            t1_steps: 2 * steps_per_epoch,
        }
    }

    /// Base schedule (step decay, the ResNet recipe).
    pub fn schedule(&self) -> Box<dyn LrSchedule> {
        Box::new(StepDecayLr { base: self.base_lr, drop_every: self.drop_every, factor: 0.1 })
    }

    /// Optimizer (SGD + momentum, the ResNet recipe).
    pub fn optimizer(&self) -> OptimizerKind {
        OptimizerKind::resnet_momentum(5e-4)
    }

    /// Configuration for one method with PipeMare's techniques toggled.
    pub fn config(&self, method: Method, t1: bool, t2: bool) -> TrainConfig {
        self.config_at(method, t1, t2, self.stages)
    }

    /// Same, at an explicit stage count (stage sweeps).
    pub fn config_at(&self, method: Method, t1: bool, t2: bool, stages: usize) -> TrainConfig {
        let mut cfg = TrainConfig::gpipe(stages, self.n_micro, self.optimizer(), self.schedule());
        cfg.mode = pipemare_core::TrainMode::Pipeline(method);
        if t1 {
            cfg.t1 = Some(T1Rescheduler::new(self.t1_steps));
        }
        if t2 {
            cfg.t2_decay = Some(0.5); // the paper's optimal CIFAR decay
        }
        cfg
    }

    /// Trains `cfg` with this workload's epochs, minibatch, evaluation
    /// cap and seed; the first `warmup_epochs` run T3.
    pub fn run(&self, cfg: TrainConfig, warmup_epochs: usize) -> RunHistory {
        let spec = RunSpec {
            epochs: self.epochs,
            minibatch: self.minibatch,
            warmup_epochs,
            eval_n: self.eval_cap,
            seed: self.seed,
            ..RunSpec::default()
        };
        run(&self.model, &self.ds, cfg, spec).expect("ImageWorkload minibatches fill N")
    }
}

/// The IWSLT/WMT-like translation workload.
pub struct TranslationWorkload {
    /// Dataset.
    pub ds: TranslationDataset,
    /// Model.
    pub model: Transformer,
    /// Pipeline stages `P`.
    pub stages: usize,
    /// Microbatches per minibatch `N`.
    pub n_micro: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Sentences per minibatch.
    pub minibatch: usize,
    /// BLEU evaluation sentences.
    pub bleu_eval_n: usize,
    /// Seed.
    pub seed: u64,
    /// Peak LR.
    pub peak_lr: f32,
    /// Warmup steps of the base schedule.
    pub lr_warmup: usize,
    /// T1 annealing steps.
    pub t1_steps: usize,
    /// T3 warmup epochs when enabled.
    pub t3_epochs: usize,
}

impl TranslationWorkload {
    /// The standard IWSLT14-like setup (Table 7 analog at bench scale).
    pub fn iwslt_like() -> Self {
        // An easy transduction task (small vocabulary, short sentences):
        // BLEU-4 is a cliff metric, and at bench scale the asynchronous
        // variants need a learnable-within-budget task for the paper's
        // orderings (naive ~0, T1 low, +T2 better, +T3 best) to be
        // visible above the cliff.
        let ds = SyntheticTranslation {
            vocab: 8,
            min_len: 4,
            max_len: 6,
            train: 80,
            test: 24,
            reverse: true,
            seed: 17,
        }
        .generate();
        let model =
            Transformer::new(TransformerConfig::iwslt_standin(ds.total_vocab, ds.total_vocab));
        TranslationWorkload {
            ds,
            model,
            stages: 12,
            n_micro: 4,
            epochs: 20,
            minibatch: 10,
            bleu_eval_n: 16,
            seed: 5,
            peak_lr: 3e-3,
            lr_warmup: 20,
            t1_steps: 60,
            t3_epochs: 6,
        }
    }

    /// The WMT17-like setup (larger vocabulary, longer sentences).
    pub fn wmt_like() -> Self {
        let ds = SyntheticTranslation {
            vocab: 12,
            min_len: 4,
            max_len: 7,
            train: 120,
            test: 24,
            reverse: true,
            seed: 23,
        }
        .generate();
        let model =
            Transformer::new(TransformerConfig::iwslt_standin(ds.total_vocab, ds.total_vocab));
        TranslationWorkload {
            ds,
            model,
            stages: 12,
            n_micro: 4,
            epochs: 20,
            minibatch: 12,
            bleu_eval_n: 16,
            seed: 11,
            peak_lr: 3e-3,
            lr_warmup: 20,
            t1_steps: 60,
            t3_epochs: 4,
        }
    }

    /// Base schedule (linear warmup + inverse sqrt, the Transformer
    /// recipe).
    pub fn schedule(&self) -> Box<dyn LrSchedule> {
        Box::new(InverseSqrtLr { peak: self.peak_lr, warmup: self.lr_warmup, init: 1e-7 })
    }

    /// Optimizer (AdamW, the Transformer recipe).
    pub fn optimizer(&self) -> OptimizerKind {
        OptimizerKind::transformer_adamw(1e-4)
    }

    /// Configuration for one method with techniques toggled (T3 is passed
    /// to the runner as warmup epochs, not set here).
    pub fn config(&self, method: Method, t1: bool, t2: bool) -> TrainConfig {
        self.config_at(method, t1, t2, self.stages)
    }

    /// Same, at an explicit stage count.
    pub fn config_at(&self, method: Method, t1: bool, t2: bool, stages: usize) -> TrainConfig {
        let mut cfg = TrainConfig::gpipe(stages, self.n_micro, self.optimizer(), self.schedule());
        cfg.mode = pipemare_core::TrainMode::Pipeline(method);
        cfg.grad_clip = Some(25.0); // Table 7's IWSLT clipping
        if t1 {
            cfg.t1 = Some(T1Rescheduler::new(self.t1_steps));
        }
        if t2 {
            cfg.t2_decay = Some(0.1); // the paper's optimal IWSLT decay
        }
        cfg
    }

    /// Trains `cfg` with this workload's epochs, minibatch, BLEU
    /// sentences and seed; the first `warmup_epochs` run T3.
    pub fn run(&self, cfg: TrainConfig, warmup_epochs: usize) -> RunHistory {
        let spec = RunSpec {
            epochs: self.epochs,
            minibatch: self.minibatch,
            warmup_epochs,
            eval_n: self.bleu_eval_n,
            seed: self.seed,
            ..RunSpec::default()
        };
        run(&self.model, &self.ds, cfg, spec).expect("TranslationWorkload minibatches fill N")
    }
}
