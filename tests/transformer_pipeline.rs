//! Integration tests of the Transformer under the pipeline trainers.

use pipemare::core::{run, RunSpec, TrainConfig, TrainMode};
use pipemare::data::{corpus_bleu, SyntheticTranslation};
use pipemare::nn::{TrainModel, Transformer, TransformerConfig};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::Method;

fn dataset() -> pipemare::data::TranslationDataset {
    SyntheticTranslation {
        vocab: 10,
        min_len: 5,
        max_len: 6,
        train: 48,
        test: 12,
        reverse: true,
        seed: 21,
    }
    .generate()
}

#[test]
fn sync_transformer_reaches_nonzero_bleu() {
    let ds = dataset();
    let model = Transformer::new(TransformerConfig::tiny(ds.total_vocab, ds.total_vocab));
    let cfg =
        TrainConfig::gpipe(4, 2, OptimizerKind::transformer_adamw(0.0), Box::new(ConstantLr(3e-3)));
    let h = run(
        &model,
        &ds,
        cfg,
        RunSpec { epochs: 30, minibatch: 12, eval_n: 12, seed: 2, ..RunSpec::default() },
    )
    .unwrap();
    assert!(!h.diverged);
    assert!(h.best_metric() > 10.0, "sync BLEU {:.1}", h.best_metric());
}

#[test]
fn pipemare_transformer_stays_stable_at_unit_granularity() {
    // One weight unit per stage: the finest pipeline the model admits.
    let ds = dataset();
    let model = Transformer::new(TransformerConfig::tiny(ds.total_vocab, ds.total_vocab));
    let stages = model.weight_units().len();
    let mut cfg = TrainConfig::pipemare(
        stages,
        2,
        OptimizerKind::transformer_adamw(0.0),
        Box::new(ConstantLr(2e-3)),
        T1Rescheduler::new(50),
        0.1,
    );
    cfg.grad_clip = Some(25.0);
    let h = run(
        &model,
        &ds,
        cfg,
        RunSpec {
            epochs: 8,
            minibatch: 12,
            warmup_epochs: 1,
            eval_n: 12,
            seed: 2,
            ..RunSpec::default()
        },
    )
    .unwrap();
    assert!(!h.diverged, "PipeMare at {stages} stages diverged");
    let first = h.epochs.first().unwrap().train_loss;
    let last = h.epochs.last().unwrap().train_loss;
    assert!(last < first, "loss did not improve: {first} -> {last}");
}

#[test]
fn pipedream_weight_stashing_memory_exceeds_pipemare() {
    use pipemare::core::PipelineTrainer;
    use pipemare::pipeline::{MemoryModel, PipelineClock};
    let ds = dataset();
    let model = Transformer::new(TransformerConfig::tiny(ds.total_vocab, ds.total_vocab));
    let stages = 8;
    let mk = |method: Method| {
        let mut cfg = TrainConfig::gpipe(
            stages,
            2,
            OptimizerKind::transformer_adamw(0.0),
            Box::new(ConstantLr(1e-3)),
        );
        cfg.mode = TrainMode::Pipeline(method);
        cfg
    };
    let trainer = PipelineTrainer::new(&model, mk(Method::PipeDream), 1);
    let clk = PipelineClock::new(stages, 2);
    let mm = MemoryModel { optimizer_copies: 4 };
    let fracs = trainer.stage_fracs();
    let pd = mm.weight_opt_copies(Method::PipeDream, &clk, &fracs, false);
    let pm = mm.weight_opt_copies(Method::PipeMare, &clk, &fracs, true);
    let gp = mm.weight_opt_copies(Method::GPipe, &clk, &fracs, false);
    assert!(pd > pm, "PipeDream {pd} should exceed PipeMare {pm}");
    assert!(pm > gp, "PipeMare+T2 {pm} should exceed GPipe {gp}");
    assert_eq!(gp, 4.0);
}

#[test]
fn greedy_and_beam_agree_on_well_trained_model() {
    // Train to near-determinism, then the two decoders should emit the
    // same (correct) outputs, and corpus BLEU from both should agree.
    let ds = SyntheticTranslation {
        vocab: 6,
        min_len: 5,
        max_len: 5,
        train: 20,
        test: 6,
        reverse: true,
        seed: 33,
    }
    .generate();
    let model = Transformer::new(TransformerConfig::tiny(ds.total_vocab, ds.total_vocab));
    let cfg =
        TrainConfig::gpipe(2, 1, OptimizerKind::transformer_adamw(0.0), Box::new(ConstantLr(3e-3)));
    let mut trainer = pipemare::core::PipelineTrainer::new(&model, cfg, 8);
    for _ in 0..600 {
        let idx: Vec<usize> = (0..ds.train_len()).collect();
        let batch = ds.batch(&idx);
        trainer.train_minibatch(&[batch], &[1.0]);
    }
    let params = trainer.params();
    // Decode the *training* sentences: after 600 full-batch steps the
    // model has memorized them, so both decoders should reproduce the
    // references and agree with each other.
    let greedy: Vec<Vec<usize>> =
        ds.train_src.iter().map(|s| model.greedy_decode(params, s, 8)).collect();
    let beam: Vec<Vec<usize>> =
        ds.train_src.iter().map(|s| model.beam_decode(params, s, 8, 5)).collect();
    let bg = corpus_bleu(&greedy, &ds.train_tgt);
    let bb = corpus_bleu(&beam, &ds.train_tgt);
    assert!(bg > 60.0, "greedy BLEU on memorized data {bg}");
    assert!(bb >= bg - 5.0, "beam BLEU {bb} below greedy {bg}");
}
