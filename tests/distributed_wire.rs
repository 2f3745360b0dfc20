//! The distributed trainer's version-aware shard traffic, in tier-1:
//! over loopback workers every method stays bit-identical to the
//! in-process `PipelineTrainer` while each step fetches exactly the
//! weight versions it does not already hold, and a step that loses a
//! worker midway ends in a typed error, never a reused half-written
//! buffer.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::{
    channel, loopback_pair, plan, run_stage_worker_opts, run_token_pipeline,
    spawn_loopback_workers, token_stage_config, CommsError, ContentTag, DistributedTrainer,
    Message, PassKind, Receiver, Sender, ShardStage, SparseMode, StageConfig, StageWorkerReport,
    Transport, WorkerOptions, MAX_STAGES, MAX_TOKENS, PROTOCOL_VERSION,
};
use pipemare::core::{dist_config, PipelineTrainer, RecomputeCfg, TrainConfig};
use pipemare::nn::{ImageBatch, Mlp};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{
    run_pipeline, ActivationLedger, Method, PipelineClock, PipelinePlan, Sleep,
};
use pipemare::telemetry::{
    events_from_jsonl_string, FlightRecorder, SpanKind, TraceEvent, FLIGHT_DEFAULT_CAPACITY,
};
use pipemare::tensor::{StoragePrecision, Tensor};

mod common;
use common::within;

const SEED: u64 = 11;

fn model() -> Mlp {
    Mlp::new(&[8, 16, 12, 10, 2])
}

/// Two separable blobs, `n_micro` microbatches of six samples.
fn minibatch(step: usize, n_micro: usize) -> Vec<ImageBatch> {
    let mut rng = StdRng::seed_from_u64(SEED + 1 + step as u64);
    (0..n_micro)
        .map(|_| {
            let mut x = Tensor::randn(&[6, 8], &mut rng);
            let y: Vec<usize> = (0..6).map(|i| i % 2).collect();
            for i in 0..6 {
                let shift = if i % 2 == 0 { 3.0 } else { -3.0 };
                for j in 0..4 {
                    x.data_mut()[i * 8 + j] += shift;
                }
            }
            ImageBatch { x, y }
        })
        .collect()
}

fn momentum() -> OptimizerKind {
    OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 }
}

/// Per step: the tags stage `s` reads, for every stage, computed from
/// the public read plan alone.
fn step_tags(
    trainer: &DistributedTrainer<'_, Mlp>,
    cfg: &TrainConfig,
    step: usize,
) -> Vec<BTreeSet<ContentTag>> {
    let clock = PipelineClock::new(cfg.stages, cfg.n_micro);
    let recompute = cfg.recompute.is_some() && step >= cfg.warmup_steps;
    trainer
        .stage_configs()
        .iter()
        .map(|sc| {
            let mut tags = BTreeSet::new();
            for n in 0..cfg.n_micro as u32 {
                let mut passes = vec![PassKind::Fwd, PassKind::Bkwd];
                if recompute {
                    passes.push(PassKind::Recomp);
                }
                for pass in passes {
                    let read = plan(sc, &clock, step as u64, n, pass).expect("a valid read");
                    tags.insert(read.tag(sc, step as u64));
                }
            }
            tags
        })
        .collect()
}

struct Run {
    params: Vec<f32>,
    loss_bits: Vec<u32>,
    diverged: bool,
    /// `FetchShard`s each step sent.
    fetches: Vec<u64>,
    /// Per step, per stage: tags the step reads that the previous step
    /// (or, at step 0, the initial weights) did not.
    new_tags: Vec<Vec<usize>>,
    /// Per step: distinct tags over all stages.
    distinct_tags: Vec<usize>,
}

/// Trains `steps` minibatches over loopback workers.
fn run_distributed(cfg: impl Fn() -> TrainConfig, steps: usize) -> Run {
    let m = model();
    let (n_micro, stages) = (cfg().n_micro, cfg().stages);
    let dcfg = dist_config(cfg(), SparseMode::Dense, None).expect("a pipeline mode");
    let (transports, workers) = spawn_loopback_workers(stages);
    let mut trainer = DistributedTrainer::connect(&m, dcfg, SEED, transports).expect("handshake");
    let weights = vec![1.0 / n_micro as f32; n_micro];
    let clock = PipelineClock::new(stages, n_micro);
    // What the driver holds before step 0: version 0, read as latest.
    let mut previous: Vec<BTreeSet<ContentTag>> = trainer
        .stage_configs()
        .iter()
        .map(|sc| {
            let read = plan(sc, &clock, 0, 0, PassKind::Latest).expect("a valid read");
            BTreeSet::from([read.tag(sc, 0)])
        })
        .collect();
    let mut run = Run {
        params: Vec::new(),
        loss_bits: Vec::new(),
        diverged: false,
        fetches: Vec::new(),
        new_tags: Vec::new(),
        distinct_tags: Vec::new(),
    };
    for step in 0..steps {
        let tags = step_tags(&trainer, &cfg(), step);
        let before = trainer.shard_fetches();
        let stats = trainer.train_minibatch(&minibatch(step, n_micro), &weights).expect("a step");
        run.loss_bits.push(stats.loss.to_bits());
        run.diverged = stats.diverged;
        run.fetches.push(trainer.shard_fetches() - before);
        run.new_tags.push(tags.iter().zip(&previous).map(|(t, p)| (t - p).len()).collect());
        run.distinct_tags.push(tags.iter().map(BTreeSet::len).sum());
        previous = tags;
    }
    run.params = trainer.gather_params().expect("gather");
    let report = trainer.shutdown().expect("shutdown");
    let committed = run.fetches.iter().rposition(|&f| f > 0).map_or(0, |last| last + 1);
    assert!(
        report.worker_steps.iter().all(|&s| s >= committed as u64 && s <= steps as u64),
        "every worker commits every live step: {:?}",
        report.worker_steps
    );
    for w in workers {
        w.join().expect("worker thread").expect("worker result");
    }
    run
}

/// Trains the same minibatches in process.
fn run_reference(cfg: TrainConfig, steps: usize) -> (Vec<f32>, Vec<u32>, bool) {
    let m = model();
    let n_micro = cfg.n_micro;
    let mut trainer = PipelineTrainer::new(&m, cfg, SEED);
    let weights = vec![1.0 / n_micro as f32; n_micro];
    let loss_bits = (0..steps)
        .map(|step| trainer.train_minibatch(&minibatch(step, n_micro), &weights).loss.to_bits())
        .collect();
    (trainer.params().to_vec(), loss_bits, trainer.diverged())
}

/// Bit-identity of losses and final weights; returns the distributed
/// run for the traffic assertions.
fn assert_matches_reference(what: &str, cfg: impl Fn() -> TrainConfig, steps: usize) -> Run {
    let (params, loss_bits, diverged) = run_reference(cfg(), steps);
    let run = run_distributed(cfg, steps);
    assert_eq!(loss_bits, run.loss_bits, "{what}: per-step losses must match bit for bit");
    assert_eq!(diverged, run.diverged, "{what}: divergence must agree");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&params), bits(&run.params), "{what}: final weights must match bit for bit");
    run
}

/// What every run must satisfy, step by step: a tag the driver has
/// never been sent is fetched, and no tag is fetched twice in a step.
/// (Between the two lies only a tag the step before read, dropped and
/// then needed again — which happens where versions step backwards, at
/// the T3 boundary.)
fn assert_fetches_bounded_by_tags(what: &str, run: &Run, steps: usize) {
    for step in 0..steps {
        let (sent, new) = (run.fetches[step], run.new_tags[step].iter().sum::<usize>() as u64);
        let distinct = run.distinct_tags[step] as u64;
        assert!(
            new <= sent && sent <= distinct,
            "{what}: step {step} sent {sent} fetches for {new} new, {distinct} distinct tags"
        );
    }
}

/// Steady state: a step fetches exactly the tags the step before it
/// did not leave with the driver.
fn assert_fetches_only_new_tags(what: &str, run: &Run, steps: std::ops::Range<usize>) {
    for step in steps {
        assert_eq!(
            run.fetches[step],
            run.new_tags[step].iter().sum::<usize>() as u64,
            "{what}: step {step} fetches (new tags per stage {:?})",
            run.new_tags[step]
        );
    }
}

#[test]
fn gpipe_fetches_one_version_per_stage_and_step() {
    within("gpipe_fetches_one_version_per_stage_and_step", || {
        let cfg = || TrainConfig::gpipe(4, 2, momentum(), Box::new(ConstantLr(0.05)));
        let run = assert_matches_reference("gpipe", cfg, 5);
        assert_fetches_only_new_tags("gpipe", &run, 0..5);
        // Step 0 reads the initial weights the driver already has; after
        // that one new version per stage, whatever the microbatch count.
        assert_eq!(run.fetches, [0, 4, 4, 4, 4]);
    })
}

#[test]
fn pipedream_fetches_each_stashed_version_once() {
    within("pipedream_fetches_each_stashed_version_once", || {
        let cfg = || TrainConfig::pipedream(4, 2, momentum(), Box::new(ConstantLr(0.05)));
        let run = assert_matches_reference("pipedream", cfg, 8);
        assert_fetches_bounded_by_tags("pipedream", &run, 8);
        assert_fetches_only_new_tags("pipedream", &run, 4..8);
        // Backward reuses the forward version (weight stashing), so steady
        // state is one new forward version per stage.
        assert_eq!(run.fetches[5..], [4, 4, 4]);
    })
}

#[test]
fn pipemare_t1_t2_fetches_two_versions_per_stage_through_warmup_boundary() {
    within("pipemare_t1_t2_fetches_two_versions_per_stage_through_warmup_boundary", || {
        let cfg = || {
            let mut c = TrainConfig::pipemare(
                4,
                2,
                momentum(),
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(20),
                0.9,
            );
            c.warmup_steps = 2; // T3: steps 0 and 1 are synchronous
            c.grad_clip = Some(5.0);
            c
        };
        let run = assert_matches_reference("pipemare t1+t2", cfg, 9);
        assert_fetches_bounded_by_tags("pipemare t1+t2", &run, 9);
        assert_fetches_only_new_tags("pipemare t1+t2", &run, 6..9);
        // Synchronous warm-up behaves like GPipe; asynchronous steady state
        // is one new forward version plus one T2-corrected backward read.
        assert_eq!(run.fetches[..2], [0, 4]);
        assert_eq!(run.fetches[6..], [8, 8, 8]);
    })
}

#[test]
fn bf16_storage_refetches_a_version_across_its_demotion() {
    within("bf16_storage_refetches_a_version_across_its_demotion", || {
        let cfg = || {
            let mut c = TrainConfig::pipemare(
                3,
                2,
                momentum(),
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(20),
                0.9,
            );
            c.weight_storage = StoragePrecision::Bf16;
            c
        };
        let run = assert_matches_reference("pipemare bf16", cfg, 7);
        assert_fetches_bounded_by_tags("pipemare bf16", &run, 7);
        assert_fetches_only_new_tags("pipemare bf16", &run, 4..7);
        // The last stage (one delay slot) reads version t as the f32 master
        // in step t and as its bf16 demotion in step t+1: same version,
        // different bytes, so it costs a third fetch there.
        assert_eq!(run.new_tags[6], [2, 2, 3]);
    })
}

#[test]
fn recompute_adamw_clip_stays_bit_identical_with_at_most_three_fetches_per_stage() {
    within("recompute_adamw_clip_stays_bit_identical_with_at_most_three_fetches_per_stage", || {
        let cfg = || {
            let mut c = TrainConfig::pipemare(
                4,
                2,
                OptimizerKind::AdamW { beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.01 },
                Box::new(ConstantLr(0.01)),
                T1Rescheduler::new(20),
                0.9,
            );
            c.warmup_steps = 1;
            c.grad_clip = Some(1.0);
            c.recompute = Some(RecomputeCfg::new(2).with_t2());
            c
        };
        let run = assert_matches_reference("pipemare + recompute", cfg, 7);
        assert_fetches_bounded_by_tags("pipemare + recompute", &run, 7);
        // Six reads per stage and step on the wire before; never more than
        // three now.
        assert!(run.fetches.iter().all(|&f| f <= 12), "{:?}", run.fetches);
    })
}

#[test]
fn forced_divergence_reverts_every_shard_like_the_reference() {
    within("forced_divergence_reverts_every_shard_like_the_reference", || {
        // Step 3's learning rate overflows the weights; both trainers must
        // revert that step (the version still advances), flag divergence,
        // and end on identical weights.
        let cfg = || {
            let lr = |step: usize| if step == 3 { 1e38 } else { 0.05 };
            TrainConfig::pipemare(4, 2, momentum(), Box::new(lr), T1Rescheduler::new(20), 0.9)
        };
        let run = assert_matches_reference("forced divergence", cfg, 6);
        assert!(run.diverged, "the forced step must be detected");
        assert_fetches_bounded_by_tags("forced divergence", &run, 4);
        assert_eq!(run.fetches[4..], [0, 0], "a diverged trainer stops touching the wire");
    })
}

#[test]
fn worker_lost_mid_gather_is_typed_and_leaves_no_trusted_buffer() {
    within("worker_lost_mid_gather_is_typed_and_leaves_no_trusted_buffer", || {
        // Two stages. Stage 0 is a real worker; stage 1 completes the
        // handshake, takes its initial shard, and dies on its first fetch —
        // after stage 0 has already answered its own, so the step's buffer
        // is half new, half old when the failure surfaces.
        let cfg = || {
            TrainConfig::pipemare(
                2,
                2,
                momentum(),
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(20),
                0.9,
            )
        };
        let (driver0, worker0) = loopback_pair();
        let healthy = std::thread::spawn(move || {
            let (tx, rx) = channel(Box::new(worker0))?;
            run_stage_worker_opts(tx, rx, WorkerOptions::default())
        });
        let (driver1, worker1) = loopback_pair();
        let doomed = std::thread::spawn(move || {
            let (mut tx, mut rx) = channel(Box::new(worker1)).unwrap();
            let Message::Hello(stage_cfg) = rx.recv().unwrap() else { panic!("expected Hello") };
            tx.send(&Message::HelloAck {
                protocol: PROTOCOL_VERSION,
                stage: stage_cfg.stage,
                clock_us: 0,
            })
            .unwrap();
            assert!(matches!(rx.recv().unwrap(), Message::InitShard { .. }));
            assert!(matches!(rx.recv().unwrap(), Message::FetchShard { .. }));
            // The link drops here, the fetch unanswered.
        });
        let m = model();
        let dcfg = dist_config(cfg(), SparseMode::Dense, None).expect("a pipeline mode");
        let transports: Vec<Box<dyn Transport>> = vec![Box::new(driver0), Box::new(driver1)];
        let mut trainer =
            DistributedTrainer::connect(&m, dcfg, SEED, transports).expect("handshake");
        let weights = [0.5, 0.5];

        match trainer.train_minibatch(&minibatch(0, 2), &weights) {
            Err(CommsError::WorkerLost { stage: 1, last_acked_step: None, cause }) => {
                assert!(cause.is_connection_loss(), "cause should be the dropped link, got {cause}")
            }
            other => panic!("expected WorkerLost for stage 1, got {other:?}"),
        }
        assert_eq!(
            trainer.shard_fetches(),
            2,
            "both stages were asked before either answer was read"
        );
        // Stage 0's reply landed; stage 1's never came. Nothing the trainer
        // holds may be served again: it refuses instead of hitting a tag.
        assert!(matches!(
            trainer.train_minibatch(&minibatch(1, 2), &weights),
            Err(CommsError::Protocol(_))
        ));
        assert!(matches!(trainer.gather_params(), Err(CommsError::Protocol(_))));
        assert_eq!(trainer.shard_fetches(), 2, "a refused step sends nothing");

        doomed.join().expect("the doomed worker exits on its own");
        drop(trainer);
        assert!(healthy.join().expect("worker thread").is_err(), "stage 0 sees its link close");
    })
}

#[test]
fn token_pipeline_over_loopback_records_the_in_process_spans() {
    within("token_pipeline_over_loopback_records_the_in_process_spans", || {
        // The token workers walk the same plan with the same per-op function
        // as `run_pipeline`'s threads, so the (kind, stage, microbatch)
        // multiset of a distributed run is the in-process one.
        fn spans(events: &[TraceEvent]) -> BTreeMap<(u8, u32, u32), usize> {
            let mut m = BTreeMap::new();
            for e in events {
                *m.entry((e.kind as u8, e.stage, e.microbatch)).or_insert(0) += 1;
            }
            m
        }
        let (stages, n_micro, minibatches) = (3, 2, 2);
        let work = std::time::Duration::from_micros(100);
        let recorder = FlightRecorder::for_pipeline(stages);
        let plan = PipelinePlan::for_method(Method::PipeMare, stages, n_micro, minibatches);
        run_pipeline(&plan, &mut [Sleep(work); 3], &recorder, &ActivationLedger::new(stages, 1));

        let (transports, handles) = spawn_loopback_workers(stages);
        let report = run_token_pipeline(
            transports,
            Method::PipeMare,
            stages,
            n_micro,
            minibatches,
            work,
            None,
        )
        .expect("token pipeline");
        for h in handles {
            h.join().expect("worker thread").expect("worker ok");
        }
        assert_eq!(report.microbatches, n_micro * minibatches);
        assert_eq!(spans(&recorder.events()), spans(&report.events));
    })
}

#[test]
fn handshake_rejects_windows_no_pipeline_needs() {
    within("handshake_rejects_windows_no_pipeline_needs", || {
        // `recomp_slots` and `stages` size the version window a worker
        // allocates, so a peer naming absurd ones gets a typed refusal
        // instead of an aborted process.
        let cfg = |stages: u32, recomp_slots: Option<u32>| StageConfig {
            protocol: PROTOCOL_VERSION,
            stage: 0,
            stages,
            n_micro: 1,
            method: Method::PipeMare,
            param_len: 4,
            shard_lo: 0,
            shard_hi: 4,
            opt: OptimizerKind::Sgd { weight_decay: 0.0 },
            t2_decay: None,
            gamma: 0.0,
            recomp_slots,
            recomp_t2: false,
            warmup_steps: 0,
            weight_storage: StoragePrecision::F32,
        };
        let bad = [
            cfg(2, Some(u32::MAX)),
            cfg(u32::MAX, None),
            cfg(MAX_STAGES + 1, None),
            cfg(2, Some(0)),
            cfg(2, Some(3)),
            cfg(2, Some(6)),
        ];
        for cfg in bad {
            let got = ShardStage::new(cfg.clone(), vec![0.0; 4]).err();
            assert!(matches!(got, Some(CommsError::Handshake(_))), "{cfg:?}: {got:?}");
        }
        // App. D's 2(S − s mod S) spans 2..=2P, and every stage count up to
        // the limit is accepted.
        for good in [cfg(2, Some(2)), cfg(2, Some(4)), cfg(MAX_STAGES, None)] {
            ShardStage::new(good.clone(), vec![0.0; 4]).unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
    })
}

#[test]
fn token_mode_accepts_the_largest_handshake_and_refuses_one_token_more() {
    within("token_mode_accepts_the_largest_handshake_and_refuses_one_token_more", || {
        // A worker walks only its own lazy row, so the largest handshake —
        // MAX_STAGES stages of MAX_TOKENS tokens, whose whole plan would take
        // hundreds of GB — is accepted and answers a shutdown within a second,
        // under every method. One token more is refused.
        let token_mode = |method, stages: usize, total: u64, limit: std::time::Duration| {
            let (driver, worker) = loopback_pair();
            let handle = std::thread::spawn(move || {
                let (tx, rx) = channel(Box::new(worker))?;
                run_stage_worker_opts(tx, rx, WorkerOptions::default())
            });
            let (mut tx, mut rx) = channel(Box::new(driver)).unwrap();
            rx.set_timeout(Some(limit)).unwrap();
            tx.send(&Message::Hello(token_stage_config(method, stages, 1, 0))).unwrap();
            assert!(matches!(rx.recv(), Ok(Message::HelloAck { .. })));
            tx.send(&Message::TokenMode { total, is_last: stages == 1, work_us: 0 }).unwrap();
            (tx, rx, handle)
        };
        let second = std::time::Duration::from_secs(1);
        for method in Method::ALL {
            let started = std::time::Instant::now();
            let (mut tx, mut rx, worker) =
                token_mode(method, MAX_STAGES as usize, MAX_TOKENS, second);
            tx.send(&Message::Shutdown).unwrap();
            assert!(matches!(rx.recv(), Ok(Message::Telemetry { .. })), "{}", method.name());
            assert!(matches!(rx.recv(), Ok(Message::ShutdownAck { .. })), "{}", method.name());
            worker.join().unwrap().expect("the largest config runs");
            assert!(started.elapsed() < second, "{}: shut down within a second", method.name());
            let (_tx, mut rx, worker) =
                token_mode(method, MAX_STAGES as usize, MAX_TOKENS + 1, second);
            let refused = rx.recv();
            assert!(matches!(refused, Ok(Message::Error { .. })), "{}: {refused:?}", method.name());
            assert!(matches!(worker.join().unwrap(), Err(CommsError::Protocol(_))));
        }
    })
}

/// A worker on its own thread, past the hello exchange for `cfg`.
fn hello_worker(
    cfg: StageConfig,
) -> (Sender, Receiver, std::thread::JoinHandle<Result<StageWorkerReport, CommsError>>) {
    let (driver, worker) = loopback_pair();
    let handle = std::thread::spawn(move || {
        let (tx, rx) = channel(Box::new(worker))?;
        run_stage_worker_opts(tx, rx, WorkerOptions::default())
    });
    let (mut tx, mut rx) = channel(Box::new(driver)).unwrap();
    tx.send(&Message::Hello(cfg)).unwrap();
    assert!(matches!(rx.recv(), Ok(Message::HelloAck { .. })));
    (tx, rx, handle)
}

/// The spans in a worker's [`Message::Telemetry`] batch, by kind.
fn count_spans(jsonl: &str, counts: &mut BTreeMap<u8, usize>) {
    for e in events_from_jsonl_string(jsonl).expect("telemetry decodes") {
        *counts.entry(e.kind as u8).or_insert(0) += 1;
    }
}

#[test]
fn a_training_worker_ships_unasked_what_its_ring_cannot_hold() {
    within("a_training_worker_ships_unasked_what_its_ring_cannot_hold", || {
        // One microbatch a step gives a worker its smallest ring, and a
        // flush asks for its spans only once a step. However many fetches
        // come in between — here more than the largest ring holds — the
        // worker ships each span exactly once, unasked while its ring
        // would otherwise lap.
        let cfg = StageConfig {
            protocol: PROTOCOL_VERSION,
            stage: 0,
            stages: 1,
            n_micro: 1,
            method: Method::PipeMare,
            param_len: 4,
            shard_lo: 0,
            shard_hi: 4,
            opt: OptimizerKind::Sgd { weight_decay: 0.0 },
            t2_decay: None,
            gamma: 0.0,
            recomp_slots: None,
            recomp_t2: false,
            warmup_steps: 0,
            weight_storage: StoragePrecision::F32,
        };
        let (mut tx, mut rx, worker) = hello_worker(cfg);
        tx.send(&Message::InitShard { params: vec![0.0; 4] }).unwrap();
        let fetches = FLIGHT_DEFAULT_CAPACITY + 1;
        for _ in 0..fetches {
            tx.send(&Message::FetchShard { step: 0, micro: 0, pass: PassKind::Fwd }).unwrap();
        }
        tx.send(&Message::Flush { id: 1 }).unwrap();
        let (mut shards, mut batches, mut spans) = (0, 0, BTreeMap::new());
        loop {
            match rx.recv().unwrap() {
                Message::Shard { .. } => shards += 1,
                Message::Telemetry { jsonl, .. } => {
                    batches += 1;
                    count_spans(&jsonl, &mut spans);
                }
                Message::FlushAck { id: 1, .. } => break,
                other => panic!("expected Shard, Telemetry or FlushAck, got {other:?}"),
            }
        }
        assert_eq!(shards, fetches);
        assert_eq!(spans, BTreeMap::from([(SpanKind::Forward as u8, fetches)]));
        assert!(batches > fetches / 256, "{batches} batches for {fetches} spans");
        tx.send(&Message::Shutdown).unwrap();
        assert!(matches!(rx.recv(), Ok(Message::Telemetry { .. })));
        assert!(matches!(rx.recv(), Ok(Message::ShutdownAck { .. })));
        worker.join().unwrap().expect("the worker ends cleanly");
    })
}

#[test]
fn a_token_worker_at_the_largest_handshake_ships_every_span_unasked() {
    within("a_token_worker_at_the_largest_handshake_ships_every_span_unasked", || {
        // Stage 0 of MAX_STAGES stages at one microbatch a minibatch: the
        // lag lets every token in before the first minibatch leaves, so
        // no flush comes while it runs all MAX_TOKENS forwards and
        // backwards. Its 256-slot ring still ships every span.
        let cfg = token_stage_config(Method::PipeMare, MAX_STAGES as usize, 1, 0);
        let (mut tx, mut rx, worker) = hello_worker(cfg);
        tx.send(&Message::TokenMode { total: MAX_TOKENS, is_last: false, work_us: 0 }).unwrap();
        for backward in [false, true] {
            for id in 0..MAX_TOKENS {
                tx.send(&Message::Token { backward, id }).unwrap();
            }
        }
        let (mut tokens, mut spans) = (0, BTreeMap::new());
        while tokens < 2 * MAX_TOKENS {
            match rx.recv().unwrap() {
                Message::Token { .. } => tokens += 1,
                Message::Telemetry { jsonl, .. } => count_spans(&jsonl, &mut spans),
                other => panic!("expected Token or Telemetry, got {other:?}"),
            }
        }
        tx.send(&Message::Shutdown).unwrap();
        match rx.recv() {
            Ok(Message::Telemetry { jsonl, .. }) => count_spans(&jsonl, &mut spans),
            other => panic!("expected Telemetry, got {other:?}"),
        }
        assert!(matches!(rx.recv(), Ok(Message::ShutdownAck { .. })));
        worker.join().unwrap().expect("the worker ends cleanly");
        let each = MAX_TOKENS as usize;
        let kinds = [
            SpanKind::Forward,
            SpanKind::Backward,
            SpanKind::QueueWaitFwd,
            SpanKind::QueueWaitBkwd,
        ];
        assert_eq!(spans, kinds.iter().map(|&k| (k as u8, each)).collect());
    })
}

#[test]
fn a_deep_token_pipeline_records_the_in_process_spans() {
    within("a_deep_token_pipeline_records_the_in_process_spans", || {
        // Seventy stages at one microbatch a minibatch: stage 0 runs ≈ 2P
        // forwards before the first minibatch leaves it and the hub
        // flushes, more spans than its 256-slot ring holds.
        fn spans(events: &[TraceEvent]) -> BTreeMap<(u8, u32, u32), usize> {
            let mut m = BTreeMap::new();
            for e in events {
                *m.entry((e.kind as u8, e.stage, e.microbatch)).or_insert(0) += 1;
            }
            m
        }
        let (stages, n_micro, minibatches) = (70, 1, 200);
        let work = std::time::Duration::ZERO;
        let recorder = FlightRecorder::for_pipeline(stages);
        let plan = PipelinePlan::for_method(Method::PipeMare, stages, n_micro, minibatches);
        let mut sleeps = vec![Sleep(work); stages];
        run_pipeline(&plan, &mut sleeps, &recorder, &ActivationLedger::new(stages, 1));

        let (transports, handles) = spawn_loopback_workers(stages);
        let report = run_token_pipeline(
            transports,
            Method::PipeMare,
            stages,
            n_micro,
            minibatches,
            work,
            None,
        )
        .expect("token pipeline");
        for h in handles {
            h.join().expect("worker thread").expect("worker ok");
        }
        assert_eq!(spans(&recorder.events()), spans(&report.events));
    })
}

#[test]
fn a_token_run_fails_with_the_error_its_worker_reported() {
    within("a_token_run_fails_with_the_error_its_worker_reported", || {
        // The worker reports why it stops, then either hangs up at once —
        // the hub's next send fails — or stays until the hub hangs up — the
        // hub reads the report. Either way the run returns the report, not
        // the closed link.
        for hangs_up in [true, false] {
            let (driver, worker) = loopback_pair();
            let fake = std::thread::spawn(move || {
                let (mut tx, mut rx) = channel(Box::new(worker)).unwrap();
                let Ok(Message::Hello(cfg)) = rx.recv() else { panic!("expected Hello") };
                let stage = cfg.stage;
                tx.send(&Message::HelloAck { protocol: PROTOCOL_VERSION, stage, clock_us: 0 })
                    .unwrap();
                assert!(matches!(rx.recv(), Ok(Message::TokenMode { .. })));
                if !hangs_up {
                    assert!(matches!(rx.recv(), Ok(Message::Token { .. })));
                }
                tx.send(&Message::Error { code: 0, message: "out of tokens".into() }).unwrap();
                while !hangs_up && rx.recv().is_ok() {}
            });
            let transports: Vec<Box<dyn Transport>> = vec![Box::new(driver)];
            let work = std::time::Duration::ZERO;
            let got = run_token_pipeline(transports, Method::PipeMare, 1, 1, 4, work, None);
            fake.join().unwrap();
            match got {
                Err(CommsError::Remote { stage: 0, message }) => {
                    assert_eq!(message, "out of tokens")
                }
                other => panic!("hangs up {hangs_up}: expected the worker's error, got {other:?}"),
            }
        }
    })
}
