//! Multi-process pipeline training over a real transport.
//!
//! The [`pipemare::comms`] crate moves the in-process pipeline trainer
//! onto a length-prefixed binary wire protocol: each stage becomes a
//! worker owning one optimizer shard and a versioned weight history,
//! and the orchestrator drives microbatches against whichever transport
//! the workers sit behind. This example trains the same 4-stage PipeMare
//! (T1 + T2) MLP three ways and checks the weights agree bit for bit:
//!
//! 1. the existing in-process [`PipelineTrainer`] (the reference);
//! 2. distributed over in-process loopback workers (one thread per
//!    stage, full wire protocol);
//! 3. with `tcp` on the command line, distributed over real TCP worker
//!    threads on 127.0.0.1.
//!
//! The merged per-worker telemetry (clock-aligned across workers) is
//! written as JSONL that `pm trace summary` can analyze:
//!
//! ```text
//! cargo run --example distributed_pipeline          # loopback only
//! cargo run --example distributed_pipeline tcp      # + TCP on 127.0.0.1
//! pm trace summary target/experiments/distributed_pipeline/loopback.jsonl
//! ```

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::{
    channel, run_stage_worker_opts, SparseMode, TcpTransport, Transport, WorkerOptions,
};
use pipemare::core::{
    train_distributed_loopback, train_distributed_tcp, PipelineTrainer, TrainConfig,
};
use pipemare::nn::{ImageBatch, Mlp};
use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare::telemetry::write_jsonl;
use pipemare::tensor::Tensor;

const SEED: u64 = 42;
const STAGES: usize = 4;
const N_MICRO: usize = 4;
const MINIBATCHES: usize = 6;

/// Two separable Gaussian blobs, the workspace's standard fast workload.
fn blob_micro(seed: u64) -> Vec<ImageBatch> {
    let (per_micro, features) = (8usize, 8usize);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N_MICRO)
        .map(|_| {
            let mut x = Tensor::randn(&[per_micro, features], &mut rng);
            let y: Vec<usize> = (0..per_micro).map(|i| i % 2).collect();
            for i in 0..per_micro {
                let shift = if i % 2 == 0 { 3.0 } else { -3.0 };
                for j in 0..features / 2 {
                    x.data_mut()[i * features + j] += shift;
                }
            }
            ImageBatch { x, y }
        })
        .collect()
}

fn config() -> TrainConfig {
    let mut cfg = TrainConfig::pipemare(
        STAGES,
        N_MICRO,
        OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
        Box::new(ConstantLr(0.05)),
        T1Rescheduler::new(24),
        0.9,
    );
    cfg.warmup_steps = 2;
    cfg
}

fn minibatches() -> impl Iterator<Item = Vec<ImageBatch>> {
    (0..MINIBATCHES).map(|mb| blob_micro(SEED + 1 + mb as u64))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let tcp = std::env::args().any(|a| a == "tcp");
    let out = std::env::var_os("PIPEMARE_EXPERIMENTS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
        .join("distributed_pipeline");
    std::fs::create_dir_all(&out).expect("create output dir");

    let model = Mlp::new(&[8, 16, 12, 10, 2]);

    // --- Reference: the in-process trainer --------------------------
    let mut reference = PipelineTrainer::new(&model, config(), SEED);
    let weights = vec![1.0 / N_MICRO as f32; N_MICRO];
    for micro in minibatches() {
        let s = reference.train_minibatch(&micro, &weights);
        println!("in-process   step {:>2}  loss {:.4}", s.step, s.loss);
    }

    // --- Loopback: same run over the full wire protocol -------------
    let (stats, params, report) = train_distributed_loopback(
        &model,
        config(),
        SEED,
        SparseMode::DropZeros,
        &mut minibatches(),
    )
    .expect("loopback run");
    for s in &stats {
        println!("loopback     step {:>2}  loss {:.4}  |w| {:.4}", s.step, s.loss, s.param_norm);
    }
    assert_eq!(
        bits(&params),
        bits(reference.params()),
        "loopback weights must be bit-identical to the in-process trainer"
    );
    println!(
        "loopback == in-process: bit-identical over {} params after {} steps",
        params.len(),
        stats.len()
    );
    println!(
        "wire: sent {} msgs / {} B, received {} msgs / {} B",
        report.sent.msgs, report.sent.bytes, report.recv.msgs, report.recv.bytes
    );
    let trace = out.join("loopback.jsonl");
    write_jsonl(&report.events, &trace).expect("write merged trace");
    println!("merged telemetry ({} events) -> {}", report.events.len(), trace.display());

    // --- TCP: real sockets on 127.0.0.1 -----------------------------
    if tcp {
        // One worker thread per stage, each behind its own listener —
        // in production these are `orchestrator worker` processes.
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for stage in 0..STAGES {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            addrs.push(listener.local_addr().expect("local addr").to_string());
            handles.push(std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                let t = TcpTransport::new(stream).expect("tcp transport");
                let (tx, rx) = channel(Box::new(t) as Box<dyn Transport>).expect("channel");
                let report =
                    run_stage_worker_opts(tx, rx, WorkerOptions::default()).expect("stage worker");
                (stage, report)
            }));
        }
        let (tcp_stats, tcp_params, tcp_report) = train_distributed_tcp(
            &model,
            config(),
            SEED,
            SparseMode::DropZeros,
            Some(Duration::from_secs(30)),
            &addrs,
            &mut minibatches(),
        )
        .expect("tcp run");
        for h in handles {
            let (stage, report) = h.join().expect("worker thread");
            println!("tcp worker {stage}: {} steps committed", report.committed_steps);
        }
        assert_eq!(
            bits(&tcp_params),
            bits(reference.params()),
            "TCP weights must be bit-identical to the in-process trainer"
        );
        println!(
            "tcp == in-process: bit-identical over {} params after {} steps",
            tcp_params.len(),
            tcp_stats.len()
        );
        let trace = out.join("tcp.jsonl");
        write_jsonl(&tcp_report.events, &trace).expect("write merged trace");
        println!("merged telemetry ({} events) -> {}", tcp_report.events.len(), trace.display());
    } else {
        println!("(pass `tcp` to also run over real sockets on 127.0.0.1)");
    }
}
