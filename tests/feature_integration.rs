//! Integration tests of the auxiliary features: recompute simulation,
//! checkpointing, dropout in chains, token batching, schedule diagrams.

use pipemare::core::{
    load_params, run, save_params, PipelineTrainer, RecomputeCfg, RunSpec, TrainConfig,
};
use pipemare::data::{batch_by_tokens, SyntheticImages};
use pipemare::nn::{Activation, Dropout, Layer, Linear, Mlp, Sequential};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{
    run_pipeline, ActivationLedger, Method, PipelinePlan, RecomputePolicy, Sleep, StageOpKind,
};
use pipemare::telemetry::{FlightRecorder, SpanKind};
use pipemare::tensor::Tensor;

mod common;
use common::within;

fn sgd() -> OptimizerKind {
    OptimizerKind::Sgd { weight_decay: 0.0 }
}

#[test]
fn recompute_training_stays_close_to_plain_async() {
    // With the T2-corrected recompute simulation, training quality should
    // be comparable to no-recompute async training (Figures 17-18's
    // claim, at tiny scale).
    let ds = SyntheticImages::cifar_like(60, 30, 4).generate();
    let model = Mlp::new(&[3 * 16 * 16, 16, 10]);
    let mk = |rc: Option<RecomputeCfg>| {
        let mut cfg = TrainConfig::pipemare(
            4,
            2,
            sgd(),
            Box::new(ConstantLr(0.02)),
            T1Rescheduler::new(20),
            0.135,
        );
        cfg.recompute = rc;
        cfg
    };
    let plain = run(
        &model,
        &ds,
        mk(None),
        RunSpec { epochs: 5, minibatch: 20, eval_n: 30, seed: 2, ..RunSpec::default() },
    )
    .unwrap();
    let rc = run(
        &model,
        &ds,
        mk(Some(RecomputeCfg { segments: 2, t2: true })),
        RunSpec { epochs: 5, minibatch: 20, eval_n: 30, seed: 2, ..RunSpec::default() },
    )
    .unwrap();
    assert!(!rc.diverged, "recompute run diverged");
    assert!(
        rc.best_metric() >= plain.best_metric() - 15.0,
        "recompute {:.1}% too far below plain {:.1}%",
        rc.best_metric(),
        plain.best_metric()
    );
}

#[test]
fn checkpoint_roundtrip_resumes_training() {
    let ds = SyntheticImages::cifar_like(40, 20, 6).generate();
    let model = Mlp::new(&[3 * 16 * 16, 16, 10]);
    let cfg = TrainConfig::gpipe(4, 2, sgd(), Box::new(ConstantLr(0.02)));
    let mut trainer = PipelineTrainer::new(&model, cfg, 3);
    let micro: Vec<pipemare::nn::ImageBatch> = vec![
        {
            let (x, y) = ds.train_batch(&[0, 1, 2, 3]);
            pipemare::nn::ImageBatch { x, y }
        },
        {
            let (x, y) = ds.train_batch(&[4, 5, 6, 7]);
            pipemare::nn::ImageBatch { x, y }
        },
    ];
    for _ in 0..3 {
        trainer.train_minibatch(&micro, &[0.5, 0.5]);
    }
    let path = std::env::temp_dir().join(format!("pm_ckpt_{}.bin", std::process::id()));
    save_params(&path, trainer.params()).unwrap();
    let restored = load_params(&path).unwrap();
    assert_eq!(restored.as_slice(), trainer.params());
    // Resumed evaluation matches.
    let (tx, ty) = ds.test_batch();
    let batch = pipemare::nn::ImageBatch { x: tx, y: ty };
    let a = model.accuracy(trainer.params(), &batch);
    let b = model.accuracy(&restored, &batch);
    assert_eq!(a, b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn dropout_composes_in_training_chains() {
    // A chain with dropout still trains; disabling dropout makes eval
    // deterministic.
    let dropout = Dropout::new(0.2, 42);
    // Keep a handle: Layer is taken by value into the chain, so build the
    // chain with a second instance sharing the same seed for eval control.
    let chain = Sequential::new()
        .push(Linear::new(8, 16))
        .push(Activation::relu())
        .push(Dropout::new(0.2, 42))
        .push(Linear::new(16, 2));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let mut params = vec![0.0f32; chain.param_len()];
    chain.init_params(&mut params, &mut rng);
    let x = Tensor::randn(&[6, 8], &mut rng);
    // Two training-mode passes differ (different masks).
    let (y1, _) = chain.forward(&params, &x);
    let (y2, _) = chain.forward(&params, &x);
    assert_ne!(y1, y2);
    let _ = dropout;
}

#[test]
fn token_batches_feed_the_translation_pipeline() {
    use pipemare::data::SyntheticTranslation;
    let ds = SyntheticTranslation::iwslt_like(40, 8, 3).generate();
    let lengths: Vec<usize> = ds.train_src.iter().map(|s| s.len()).collect();
    let order: Vec<usize> = (0..ds.train_len()).collect();
    let batches = batch_by_tokens(&lengths, &order, 40);
    assert!(!batches.is_empty());
    // Every batch builds a valid SeqBatch.
    for b in batches.iter().take(4) {
        let sb = ds.batch(b);
        assert_eq!(sb.batch_size(), b.len());
        assert!(sb.target_tokens() > 0);
    }
}

#[test]
fn schedule_diagram_matches_throughput_ordering() {
    // The plans' unit slots and the threaded executor must agree on the
    // ordering: GPipe needs more slots per microbatch than PipeMare.
    let g = PipelinePlan::for_method(Method::GPipe, 4, 2, 5);
    let p = PipelinePlan::for_method(Method::PipeMare, 4, 2, 5);
    assert!(g.slots() > p.slots());
    // And every microbatch appears exactly once per direction per stage.
    let find = |plan: &PipelinePlan, s: usize, kind, m| {
        plan.timeline(s).iter().filter(|op| op.kind == kind && op.micro == m).count()
    };
    for m in 0..10 {
        for s in 0..4 {
            assert_eq!(find(&g, s, StageOpKind::Fwd, m), 1);
            assert_eq!(find(&p, s, StageOpKind::Bkwd, m), 1);
        }
    }
}

#[test]
fn traced_run_executes_its_plan_op_for_op() {
    within("traced_run_executes_its_plan_op_for_op", || {
        // The schedule is data: what each stage thread records is exactly its
        // timeline in the plan — the 1F1B row for the three methods, with
        // the replay sweep for PipeMare Recompute.
        let (stages, n_micro, minibatches) = (3, 2, 3);
        let mut plans: Vec<PipelinePlan> = Method::ALL
            .iter()
            .map(|&m| PipelinePlan::for_method(m, stages, n_micro, minibatches))
            .collect();
        let policy = RecomputePolicy::Segmented { segment: 2 };
        plans.push(PipelinePlan::for_recompute(policy, stages, n_micro, minibatches));
        for plan in &plans {
            let rec = FlightRecorder::for_pipeline(stages);
            let work = std::time::Duration::from_micros(100);
            run_pipeline(plan, &mut [Sleep(work); 3], &rec, &ActivationLedger::new(stages, 1));
            let events = rec.events();
            for s in 0..stages {
                let planned: Vec<(SpanKind, u32)> = plan
                    .timeline(s)
                    .iter()
                    .map(|op| {
                        let kind = match op.kind {
                            StageOpKind::Fwd => SpanKind::Forward,
                            StageOpKind::Recomp => SpanKind::Recompute,
                            StageOpKind::Bkwd => SpanKind::Backward,
                        };
                        (kind, op.micro as u32)
                    })
                    .collect();
                let recorded: Vec<(SpanKind, u32)> = events
                    .iter()
                    .filter(|e| {
                        e.track == s as u32 && planned.iter().any(|(kind, _)| *kind == e.kind)
                    })
                    .map(|e| (e.kind, e.microbatch))
                    .collect();
                assert_eq!(recorded, planned, "stage {s}");
            }
        }
    })
}
