//! End-to-end distributed pipeline driver.
//!
//! Two subcommands:
//!
//! * `orchestrator worker --listen 127.0.0.1:0` — serve one stage-worker
//!   session over TCP. Prints `LISTENING <addr>` on stdout so a parent
//!   process can discover the bound port.
//! * `orchestrator train [--transport tcp|loopback] [--stages N]
//!   [--minibatches K] [--micro M] [--sparse MODE]` — run a full
//!   PipeMare (T1 + T2) training job over N stage workers (subprocesses
//!   for TCP, threads for loopback), stream telemetry back, and write
//!   the merged trace where `pm trace summary` can read it.
//!
//! A TCP run finishes with a self-check: the same seeds are replayed
//! over loopback workers and the final weights must match bit for bit.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_comms::{
    channel, run_stage_worker_opts, spawn_loopback_workers, CommsError, DistConfig, DistRunReport,
    DistributedTrainer, SparseMode, TcpTransport, TrainConfig, Transport, WorkerOptions,
};
use pipemare_nn::{ImageBatch, Mlp};
use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare_telemetry::journal::OFFSET_FILE;
use pipemare_telemetry::{
    default_rules, write_jsonl, AlertEngine, JournalConfig, JournalWriter, StatsEndpoint,
    StoreTicker,
};
use pipemare_tensor::Tensor;

const SEED: u64 = 42;

fn usage() -> ! {
    eprintln!(
        "usage:\n  orchestrator worker --listen <addr> [--stats <addr>] [--journal <dir>]\n  \
         orchestrator train \
         [--transport tcp|loopback] [--stages N] [--minibatches K] [--micro M] \
         [--sparse dense|dropzeros|threshold:<t>|topk:<frac>] \
         [--stats <addr>] [--worker-stats-base <port>] [--journal <dir>]\n\
         \n\
         --stats (or PIPEMARE_STATS_ADDR) exposes a plain-TCP stats scrape\n\
         endpoint for `pm top`; --worker-stats-base gives spawned TCP worker s\n\
         the endpoint 127.0.0.1:<port>+s. --journal writes durable telemetry\n\
         journals (orchestrator/ plus worker-<s>/ for spawned TCP workers)\n\
         that `pm query` can read back after the run — or after a crash."
    );
    std::process::exit(2);
}

/// The stats scrape address: an explicit flag wins, then the
/// `PIPEMARE_STATS_ADDR` environment variable.
fn stats_addr(flag: Option<String>) -> Option<String> {
    flag.or_else(|| std::env::var("PIPEMARE_STATS_ADDR").ok()).filter(|a| !a.is_empty())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => cmd_worker(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("orchestrator: error: {e}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------------

fn cmd_worker(args: &[String]) -> Result<(), CommsError> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut stats: Option<String> = None;
    let mut journal: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = it.next().cloned().unwrap_or_else(|| usage()),
            "--stats" => stats = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--journal" => journal = Some(it.next().cloned().unwrap_or_else(|| usage()).into()),
            _ => usage(),
        }
    }
    let stats = stats_addr(stats);
    let listener = TcpListener::bind(&listen)?;
    // The parent parses this line to learn the ephemeral port.
    println!("LISTENING {}", listener.local_addr()?);
    let (stream, peer) = listener.accept()?;
    eprintln!("worker: serving {peer}");
    let (tx, rx) = channel(Box::new(TcpTransport::new(stream)?))?;
    let report =
        run_stage_worker_opts(tx, rx, WorkerOptions { stats_addr: stats, journal_dir: journal })?;
    eprintln!(
        "worker: stage {} done, {} steps committed, sent {} B / recv {} B",
        report.stage, report.committed_steps, report.sent.bytes, report.recv.bytes
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// train
// ---------------------------------------------------------------------------

struct TrainArgs {
    transport: String,
    stages: usize,
    minibatches: usize,
    n_micro: usize,
    sparse: SparseMode,
    stats: Option<String>,
    worker_stats_base: Option<u16>,
    journal: Option<PathBuf>,
}

fn parse_sparse(s: &str) -> SparseMode {
    match s {
        "dense" => SparseMode::Dense,
        "dropzeros" => SparseMode::DropZeros,
        _ => {
            if let Some(t) = s.strip_prefix("threshold:") {
                SparseMode::Threshold(t.parse().unwrap_or_else(|_| usage()))
            } else if let Some(f) = s.strip_prefix("topk:") {
                SparseMode::TopK(f.parse().unwrap_or_else(|_| usage()))
            } else {
                usage()
            }
        }
    }
}

fn parse_train_args(args: &[String]) -> TrainArgs {
    let mut out = TrainArgs {
        transport: "loopback".to_string(),
        stages: 4,
        minibatches: 6,
        n_micro: 4,
        sparse: SparseMode::DropZeros,
        stats: None,
        worker_stats_base: None,
        journal: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--transport" => out.transport = val(),
            "--stages" => out.stages = val().parse().unwrap_or_else(|_| usage()),
            "--minibatches" => out.minibatches = val().parse().unwrap_or_else(|_| usage()),
            "--micro" => out.n_micro = val().parse().unwrap_or_else(|_| usage()),
            "--sparse" => out.sparse = parse_sparse(&val()),
            "--stats" => out.stats = Some(val()),
            "--worker-stats-base" => {
                out.worker_stats_base = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--journal" => out.journal = Some(val().into()),
            _ => usage(),
        }
    }
    out.stats = stats_addr(out.stats.take());
    if !matches!(out.transport.as_str(), "tcp" | "loopback") {
        usage();
    }
    out
}

/// Two separable Gaussian blobs, the workspace's standard fast workload.
fn blob_micro(seed: u64, n_micro: usize, per_micro: usize, features: usize) -> Vec<ImageBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_micro)
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

fn dist_config(a: &TrainArgs) -> DistConfig {
    let mut train = TrainConfig::pipemare(
        a.stages,
        a.n_micro,
        OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
        Box::new(ConstantLr(0.05)),
        T1Rescheduler::new(24),
        0.9,
    );
    train.warmup_steps = 2;
    DistConfig { train, sparse_grads: a.sparse, recv_timeout: Some(Duration::from_secs(30)) }
}

fn run_job(
    model: &Mlp,
    a: &TrainArgs,
    transports: Vec<Box<dyn Transport>>,
    quiet: bool,
) -> Result<(Vec<f32>, DistRunReport), CommsError> {
    let mut trainer = DistributedTrainer::connect(model, dist_config(a), SEED, transports)?;
    // The live stats plane: a sampling ticker over the driver's store
    // plus a plain-TCP scrape endpoint `pm top` can poll. Quiet runs are
    // self-check replays — no second endpoint on the same address.
    let store = trainer.live_store();
    store.attach_alerts(std::sync::Arc::new(AlertEngine::new(default_rules())));
    let _stats = match a.stats.as_deref().filter(|_| !quiet) {
        Some(addr) => {
            let endpoint = StatsEndpoint::bind(addr, std::sync::Arc::clone(&store))?;
            println!("STATS {}", endpoint.addr());
            Some(endpoint)
        }
        None => None,
    };
    // The durable plane: journal the driver's samples, and leave each
    // spawned worker's handshake clock offset next to its journal so
    // `pm query` can merge everything onto the driver timebase.
    let journal = a.journal.as_ref().filter(|_| !quiet);
    if let Some(dir) = journal {
        if a.transport == "tcp" {
            for (s, off) in trainer.clock_offsets().iter().enumerate() {
                let wdir = dir.join(format!("worker-{s}"));
                std::fs::create_dir_all(&wdir)?;
                std::fs::write(wdir.join(OFFSET_FILE), off.to_string())?;
            }
        }
    }
    let _ticker = match journal {
        Some(dir) => {
            let mut writer = JournalWriter::create(
                dir.join("orchestrator"),
                "orchestrator",
                a.stages,
                JournalConfig::default(),
            )?;
            let mut warned = false;
            Some(StoreTicker::spawn_with_hook(
                std::sync::Arc::clone(&store),
                Duration::from_millis(250),
                move |sample| {
                    if let Err(e) = writer.append(sample) {
                        if !warned {
                            eprintln!("orchestrator: journal append failed: {e}");
                            warned = true;
                        }
                    }
                },
            ))
        }
        None if _stats.is_some() => {
            Some(StoreTicker::spawn(std::sync::Arc::clone(&store), Duration::from_millis(250)))
        }
        None => None,
    };
    let weights = vec![1.0 / a.n_micro as f32; a.n_micro];
    for mb in 0..a.minibatches {
        let micro = blob_micro(SEED + 1 + mb as u64, a.n_micro, 8, 8);
        let stats = trainer.train_minibatch(&micro, &weights)?;
        if !quiet {
            println!(
                "step {:2}  loss {:.4}  |w| {:.4}  lr {:.4}{}",
                stats.step,
                stats.loss,
                stats.param_norm,
                stats.base_lr,
                if stats.diverged { "  DIVERGED" } else { "" }
            );
        }
    }
    let params = trainer.gather_params()?;
    let report = trainer.shutdown()?;
    Ok((params, report))
}

/// Driver-side transports plus the spawned worker subprocesses.
type TcpWorkers = (Vec<Box<dyn Transport>>, Vec<Child>);

fn spawn_tcp_workers(
    stages: usize,
    stats_base: Option<u16>,
    journal: Option<&PathBuf>,
) -> Result<TcpWorkers, CommsError> {
    let exe = std::env::current_exe()?;
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(stages);
    let mut children = Vec::with_capacity(stages);
    for s in 0..stages {
        let mut cmd = Command::new(&exe);
        cmd.args(["worker", "--listen", "127.0.0.1:0"]);
        // Never inherit the parent's stats address: every worker would
        // race to bind the same port. Stats come from --worker-stats-base
        // instead, one port per stage.
        cmd.env_remove("PIPEMARE_STATS_ADDR");
        if let Some(base) = stats_base {
            let addr = format!("127.0.0.1:{}", base + s as u16);
            println!("stage {s} stats -> {addr}");
            cmd.args(["--stats", &addr]);
        }
        if let Some(dir) = journal {
            let wdir = dir.join(format!("worker-{s}"));
            cmd.arg("--journal").arg(&wdir);
        }
        let mut child = cmd.stdout(Stdio::piped()).spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| {
                CommsError::Protocol(format!("worker {s} announced {line:?}, expected LISTENING"))
            })?
            .to_string();
        println!("stage {s} -> {addr} (pid {})", child.id());
        transports.push(Box::new(TcpTransport::connect(&addr)?));
        children.push(child);
    }
    Ok((transports, children))
}

fn experiments_dir() -> PathBuf {
    std::env::var_os("PIPEMARE_EXPERIMENTS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
}

fn cmd_train(args: &[String]) -> Result<(), CommsError> {
    let a = parse_train_args(args);
    let model = Mlp::new(&[8, 16, 12, 10, 2]);
    println!(
        "orchestrator: {}-stage PipeMare (T1+T2) over {}, {} minibatches x {} microbatches, sparse={:?}",
        a.stages, a.transport, a.minibatches, a.n_micro, a.sparse
    );

    let (params, report) = if a.transport == "tcp" {
        let (transports, children) =
            spawn_tcp_workers(a.stages, a.worker_stats_base, a.journal.as_ref())?;
        let out = run_job(&model, &a, transports, false)?;
        for mut child in children {
            let _ = child.wait();
        }
        out
    } else {
        let (transports, handles) = spawn_loopback_workers(a.stages);
        let out = run_job(&model, &a, transports, false)?;
        for h in handles {
            h.join().expect("worker thread panicked")?;
        }
        out
    };

    println!("workers committed: {:?}", report.worker_steps);
    println!(
        "wire: sent {} B in {} msgs, recv {} B in {} msgs",
        report.sent.bytes, report.sent.msgs, report.recv.bytes, report.recv.msgs
    );
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    let trace = dir.join(format!("distributed_{}.jsonl", a.transport));
    write_jsonl(&report.events, &trace)?;
    println!("trace: {} ({} events)", trace.display(), report.events.len());

    if a.transport == "tcp" {
        // Replay the exact same job on in-process loopback workers: the
        // final weights must match the TCP run bit for bit.
        let (transports, handles) = spawn_loopback_workers(a.stages);
        let (reference, _) = run_job(&model, &a, transports, true)?;
        for h in handles {
            h.join().expect("worker thread panicked")?;
        }
        let identical = params.len() == reference.len()
            && params.iter().zip(reference.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
        if !identical {
            return Err(CommsError::Protocol(
                "self-check failed: TCP and loopback weights differ".to_string(),
            ));
        }
        println!("self-check: TCP weights bit-identical to loopback");
    }
    Ok(())
}
