//! End-to-end distributed-pipeline tests: bit-identity against the
//! in-process trainer, failure surfacing over TCP, and token-mode
//! telemetry equivalence with the threaded executor.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare_comms::{
    channel, run_token_pipeline, spawn_loopback_workers, CommsError, DistConfig,
    DistributedTrainer, Message, SparseMode, TcpTransport, Transport,
};
use pipemare_core::{train_distributed_loopback, PipelineTrainer, TrainConfig};
use pipemare_nn::{ImageBatch, Mlp};
use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare_pipeline::{run_pipeline, ActivationLedger, Method, PipelinePlan, Sleep};
use pipemare_telemetry::FlightRecorder;
use pipemare_tensor::Tensor;

const SEED: u64 = 7;

fn model() -> Mlp {
    Mlp::new(&[8, 16, 12, 10, 2])
}

fn blob_micro(seed: u64, n_micro: usize, per_micro: usize) -> Vec<ImageBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_micro)
        .map(|_| {
            let mut x = Tensor::randn(&[per_micro, 8], &mut rng);
            let y: Vec<usize> = (0..per_micro).map(|i| i % 2).collect();
            for i in 0..per_micro {
                let shift = if i % 2 == 0 { 3.0 } else { -3.0 };
                for j in 0..4 {
                    x.data_mut()[i * 8 + j] += shift;
                }
            }
            ImageBatch { x, y }
        })
        .collect()
}

fn run_reference(cfg: TrainConfig, minibatches: usize) -> (Vec<f32>, Vec<u32>) {
    let m = model();
    let n_micro = cfg.n_micro;
    let mut trainer = PipelineTrainer::new(&m, cfg, SEED);
    let weights = vec![1.0 / n_micro as f32; n_micro];
    let mut loss_bits = Vec::new();
    for mb in 0..minibatches {
        let micro = blob_micro(SEED + 1 + mb as u64, n_micro, 6);
        let stats = trainer.train_minibatch(&micro, &weights);
        loss_bits.push(stats.loss.to_bits());
    }
    (trainer.params().to_vec(), loss_bits)
}

fn run_distributed(
    cfg: TrainConfig,
    sparse: SparseMode,
    minibatches: usize,
) -> (Vec<f32>, Vec<u32>) {
    let m = model();
    let n_micro = cfg.n_micro;
    let mut batches = (0..minibatches).map(|mb| blob_micro(SEED + 1 + mb as u64, n_micro, 6));
    let (stats, params, _report) =
        train_distributed_loopback(&m, cfg, SEED, sparse, &mut batches).expect("distributed run");
    (params, stats.iter().map(|s| s.loss.to_bits()).collect())
}

fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: params differ at {i}: {x} vs {y}");
    }
}

#[test]
fn loopback_gpipe_is_bit_identical_to_in_process_trainer() {
    let cfg = || {
        TrainConfig::gpipe(
            4,
            4,
            OptimizerKind::Momentum { beta: 0.9, weight_decay: 1e-4 },
            Box::new(ConstantLr(0.05)),
        )
    };
    let (ref_params, ref_loss) = run_reference(cfg(), 5);
    let (dist_params, dist_loss) = run_distributed(cfg(), SparseMode::Dense, 5);
    assert_eq!(ref_loss, dist_loss, "per-step losses must match bit for bit");
    assert_bits_equal(&ref_params, &dist_params, "gpipe");
}

#[test]
fn loopback_pipemare_t1_t2_is_bit_identical_to_in_process_trainer() {
    let cfg = || {
        let mut c = TrainConfig::pipemare(
            4,
            4,
            OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(20),
            0.9,
        );
        c.warmup_steps = 2;
        c.grad_clip = Some(5.0);
        c
    };
    let (ref_params, ref_loss) = run_reference(cfg(), 6);
    let (dist_params, dist_loss) = run_distributed(cfg(), SparseMode::Dense, 6);
    assert_eq!(ref_loss, dist_loss, "per-step losses must match bit for bit");
    assert_bits_equal(&ref_params, &dist_params, "pipemare t1+t2");
}

#[test]
fn pipemare_adam_with_recompute_is_bit_identical() {
    let cfg = || {
        let mut c = TrainConfig::pipemare(
            4,
            4,
            OptimizerKind::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 },
            Box::new(ConstantLr(0.01)),
            T1Rescheduler::new(20),
            0.9,
        );
        c.warmup_steps = 1;
        c.recompute = Some(pipemare_core::RecomputeCfg::new(2).with_t2());
        c
    };
    let (ref_params, ref_loss) = run_reference(cfg(), 5);
    let (dist_params, dist_loss) = run_distributed(cfg(), SparseMode::Dense, 5);
    assert_eq!(ref_loss, dist_loss);
    assert_bits_equal(&ref_params, &dist_params, "pipemare + recompute");
}

#[test]
fn bf16_weight_storage_is_bit_identical_across_process_boundary() {
    // With bf16-stored history on both sides, the worker ships stored
    // bf16 bits verbatim for uncorrected fetches and the driver widens
    // them exactly, so the distributed run must still match the
    // in-process trainer bit for bit — losses and final weights.
    let cfg = || {
        let mut c = TrainConfig::pipemare(
            4,
            4,
            OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(20),
            0.9,
        );
        c.warmup_steps = 2;
        c.weight_storage = pipemare_tensor::StoragePrecision::Bf16;
        c
    };
    let (ref_params, ref_loss) = run_reference(cfg(), 6);
    let (dist_params, dist_loss) = run_distributed(cfg(), SparseMode::Dense, 6);
    assert_eq!(ref_loss, dist_loss, "per-step losses must match bit for bit");
    assert_bits_equal(&ref_params, &dist_params, "pipemare + bf16 storage");
}

#[test]
fn dropzeros_wire_encoding_changes_nothing() {
    let cfg = || {
        TrainConfig::pipemare(
            3,
            4,
            OptimizerKind::Sgd { weight_decay: 0.0 },
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(10),
            0.5,
        )
    };
    let (dense, _) = run_distributed(cfg(), SparseMode::Dense, 4);
    let (dropz, _) = run_distributed(cfg(), SparseMode::DropZeros, 4);
    assert_bits_equal(&dense, &dropz, "DropZeros is bit-lossless on the wire");
}

fn connect_one_stage(
    transports: Vec<Box<dyn Transport>>,
    recv_timeout: Option<Duration>,
) -> Result<Vec<f32>, CommsError> {
    let m = model();
    let mut cfg = DistConfig::new(TrainConfig::gpipe(
        1,
        2,
        OptimizerKind::Sgd { weight_decay: 0.0 },
        Box::new(ConstantLr(0.05)),
    ));
    cfg.recv_timeout = recv_timeout;
    let mut trainer = DistributedTrainer::connect(&m, cfg, SEED, transports)?;
    let micro = blob_micro(SEED, 2, 4);
    trainer.train_minibatch(&micro, &[0.5, 0.5])?;
    trainer.gather_params()
}

#[test]
fn killed_tcp_worker_surfaces_worker_lost_with_stage() {
    // A "worker" that completes the handshake, accepts the init shard,
    // then drops the socket mid-run.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let victim = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let (mut tx, mut rx) = channel(Box::new(TcpTransport::new(stream).unwrap())).unwrap();
        let cfg = match rx.recv().unwrap() {
            Message::Hello(cfg) => cfg,
            other => panic!("expected Hello, got {}", other.name()),
        };
        tx.send(&Message::HelloAck {
            protocol: pipemare_comms::PROTOCOL_VERSION,
            stage: cfg.stage,
            clock_us: 0,
        })
        .unwrap();
        let _ = rx.recv().unwrap(); // InitShard
        let _ = rx.recv().unwrap(); // first FetchShard — then die.
                                    // Socket drops here.
    });
    let transport = Box::new(TcpTransport::connect(&addr.to_string()).unwrap());
    let err = connect_one_stage(vec![transport], Some(Duration::from_secs(5)))
        .expect_err("dead worker must fail the run");
    match err {
        CommsError::WorkerLost { stage, last_acked_step, cause } => {
            assert_eq!(stage, 0);
            assert_eq!(last_acked_step, None, "no step was ever acked");
            assert!(cause.is_connection_loss(), "cause should be connection loss, got {cause}");
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
    victim.join().unwrap();
}

#[test]
fn unresponsive_tcp_worker_times_out_cleanly() {
    // A worker that handshakes and then goes silent: with a receive
    // timeout configured the orchestrator reports Timeout instead of
    // hanging forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = crossbeam_channel::bounded::<()>(1);
    let wedged = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let (mut tx, mut rx) = channel(Box::new(TcpTransport::new(stream).unwrap())).unwrap();
        let cfg = match rx.recv().unwrap() {
            Message::Hello(cfg) => cfg,
            other => panic!("expected Hello, got {}", other.name()),
        };
        tx.send(&Message::HelloAck {
            protocol: pipemare_comms::PROTOCOL_VERSION,
            stage: cfg.stage,
            clock_us: 0,
        })
        .unwrap();
        // Hold the socket open but never answer anything again.
        let _ = done_rx.recv();
        drop((tx, rx));
    });
    let transport = Box::new(TcpTransport::connect(&addr.to_string()).unwrap());
    let err = connect_one_stage(vec![transport], Some(Duration::from_millis(200)))
        .expect_err("wedged worker must time out");
    match err {
        CommsError::WorkerLost { stage, cause, .. } => {
            assert_eq!(stage, 0);
            assert!(matches!(*cause, CommsError::Timeout), "cause should be Timeout, got {cause}");
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
    drop(done_tx);
    wedged.join().unwrap();
}

#[test]
fn handshake_rejects_version_and_shape_mismatches() {
    // Wrong protocol version: the worker reports Message::Error and the
    // raw link sees it.
    let (transports, handles) = spawn_loopback_workers(2);
    let mut it = transports.into_iter();
    let (mut tx, mut rx) = channel(it.next().unwrap()).unwrap();
    let mut bad = pipemare_comms::orchestrator::token_stage_config(Method::GPipe, 2, 2, 0);
    bad.protocol = 999;
    tx.send(&Message::Hello(bad)).unwrap();
    match rx.recv() {
        Ok(Message::Error { message, .. }) => {
            assert!(message.contains("protocol"), "unexpected error text: {message}")
        }
        other => panic!("expected protocol-version rejection, got {other:?}"),
    }
    // Degenerate shard bounds on the second worker: also rejected.
    let (mut tx2, mut rx2) = channel(it.next().unwrap()).unwrap();
    let mut empty = pipemare_comms::orchestrator::token_stage_config(Method::GPipe, 2, 2, 1);
    empty.shard_lo = 5;
    empty.shard_hi = 5;
    tx2.send(&Message::Hello(empty)).unwrap();
    assert!(
        matches!(rx2.recv(), Ok(Message::Error { .. })),
        "empty shard must be rejected at handshake"
    );
    drop((tx, rx, tx2, rx2));
    for h in handles {
        assert!(h.join().expect("worker thread").is_err(), "workers must report the failure");
    }
}

/// Multiset of (kind, stage, microbatch) triples — the schedule-invariant
/// content of a trace (timestamps and interleaving differ run to run).
fn span_multiset(events: &[pipemare_telemetry::TraceEvent]) -> BTreeMap<(u8, u32, u32), usize> {
    let mut m = BTreeMap::new();
    for e in events {
        *m.entry((e.kind as u8, e.stage, e.microbatch)).or_insert(0) += 1;
    }
    m
}

#[test]
fn token_pipeline_matches_threaded_executor_span_multiset() {
    for method in [Method::GPipe, Method::PipeMare] {
        let (stages, n_micro, minibatches) = (3, 4, 2);
        let recorder = FlightRecorder::for_pipeline(stages);
        run_pipeline(
            &PipelinePlan::for_method(method, stages, n_micro, minibatches),
            &mut [Sleep(Duration::from_micros(200)); 3],
            &recorder,
            &ActivationLedger::new(stages, 1),
        );
        let reference = span_multiset(&recorder.events());

        let (transports, handles) = spawn_loopback_workers(stages);
        let report = run_token_pipeline(
            transports,
            method,
            stages,
            n_micro,
            minibatches,
            Duration::from_micros(200),
            None,
        )
        .expect("token pipeline");
        for h in handles {
            h.join().expect("worker thread").expect("worker ok");
        }
        assert_eq!(report.microbatches, n_micro * minibatches);
        let distributed = span_multiset(&report.events);
        assert_eq!(
            reference, distributed,
            "{method:?}: span multisets diverge between threaded and distributed token runs"
        );
    }
}

#[test]
fn token_worker_buffers_a_token_that_arrives_before_its_op() {
    // Stage 0 of a 2-stage PipeMare run of two microbatches walks
    // F0 F1 B0 B1. Hand it backward token 0 *before* forward token 1: it
    // must keep the early token and still run its list in order.
    let (transports, mut handles) = spawn_loopback_workers(1);
    let (mut tx, mut rx) = channel(transports.into_iter().next().unwrap()).unwrap();
    let cfg = pipemare_comms::orchestrator::token_stage_config(Method::PipeMare, 2, 2, 0);
    tx.send(&Message::Hello(cfg)).unwrap();
    assert!(matches!(rx.recv(), Ok(Message::HelloAck { stage: 0, .. })));
    tx.send(&Message::TokenMode { total: 2, is_last: false, work_us: 50 }).unwrap();
    let arrivals = [(false, 0), (true, 0), (false, 1), (true, 1)];
    for (backward, id) in arrivals {
        tx.send(&Message::Token { backward, id }).unwrap();
    }
    let expect = [(false, 0), (false, 1), (true, 0), (true, 1)];
    for (backward, id) in expect {
        match rx.recv() {
            Ok(Message::Token { backward: b, id: i }) => assert_eq!((b, i), (backward, id)),
            other => panic!("expected token ({backward}, {id}), got {other:?}"),
        }
    }
    tx.send(&Message::Shutdown).unwrap();
    assert!(matches!(rx.recv(), Ok(Message::Telemetry { .. })));
    assert!(matches!(rx.recv(), Ok(Message::ShutdownAck { stage: 0, .. })));
    handles.pop().unwrap().join().expect("worker thread").expect("worker ok");
}

#[test]
fn token_worker_rejects_an_unbounded_work_duration() {
    // `work_us` comes from the peer and becomes a sleep: u64::MAX would
    // park the worker for good at its first op, so it must be refused.
    let (transports, mut handles) = spawn_loopback_workers(1);
    let (mut tx, mut rx) = channel(transports.into_iter().next().unwrap()).unwrap();
    rx.set_timeout(Some(Duration::from_secs(2))).unwrap();
    let cfg = pipemare_comms::orchestrator::token_stage_config(Method::PipeMare, 2, 2, 0);
    tx.send(&Message::Hello(cfg)).unwrap();
    assert!(matches!(rx.recv(), Ok(Message::HelloAck { stage: 0, .. })));
    tx.send(&Message::TokenMode { total: 2, is_last: false, work_us: u64::MAX }).unwrap();
    // The worker may already have hung up after refusing the mode.
    let _ = tx.send(&Message::Token { backward: false, id: 0 });
    match rx.recv() {
        Ok(Message::Error { .. }) => {}
        other => panic!("expected an Error reply, got {other:?}"),
    }
    let result = handles.pop().unwrap().join().expect("worker thread");
    assert!(matches!(result, Err(CommsError::Protocol(_))), "{result:?}");
}

#[test]
fn sparse_grads_cut_wire_bytes() {
    // A mostly-zero gradient stream: DropZeros must beat Dense on sent
    // bytes. (The gradient of the first minibatches of a fresh Mlp has
    // plenty of exact zeros from ReLU gating; to be deterministic we
    // compare the encodings directly.)
    let mut rng = StdRng::seed_from_u64(3);
    let dense: Vec<f32> = (0..10_000)
        .map(|_| if rng.gen_bool(0.01) { rng.gen_range(-1.0..1.0f32) } else { 0.0 })
        .collect();
    let d = pipemare_comms::TensorPayload::from_dense(&dense, SparseMode::Dense).wire_bytes();
    let s = pipemare_comms::TensorPayload::from_dense(&dense, SparseMode::DropZeros).wire_bytes();
    assert!(
        (d as f64) / (s as f64) >= 3.0,
        "1% density should compress ≥ 3x: dense {d} B vs sparse {s} B"
    );
}
