//! Pipelined inference serving over real sockets.
//!
//! Stands up a [`pipemare::serve::Server`] for a small MLP — forward
//! passes split across pipeline stages, a bounded admission queue, and
//! a work-conserving batcher — then drives it two ways:
//!
//! 1. concurrent TCP clients on 127.0.0.1, every response checked
//!    bit-for-bit against the training-path forward (`Mlp::logits`);
//! 2. an open-loop Poisson load sweep over loopback connections
//!    (the `pipemare-bench` load generator), pushing the server from a
//!    light trickle past its saturation point so shedding kicks in.
//!
//! The flight recorder observes the whole run; its trace is written as
//! JSONL that `pmtrace summary` can analyze — per-stage `forward`
//! spans, the batcher's `coalesce` spans, and per-request queue waits:
//!
//! ```text
//! cargo run --release --example serving
//! pmtrace summary target/experiments/serving/serving.jsonl
//! ```

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::{TcpTransport, Transport};
use pipemare::core::serve_checkpoint;
use pipemare::nn::{Mlp, TrainModel};
use pipemare::serve::{InferClient, ServeConfig};
use pipemare::telemetry::{default_rules, json, top, write_jsonl, EventSource};
use pipemare::tensor::Tensor;
use pipemare_bench::loadgen::{closed_loop, open_loop, OpenLoopCfg};

const IN: usize = 16;
const STAGES: usize = 2;

fn main() {
    let out = std::env::var_os("PIPEMARE_EXPERIMENTS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
        .join("serving");
    std::fs::create_dir_all(&out).expect("create output dir");

    // A "checkpoint": freshly initialized weights stand in for a
    // trained parameter vector — serving treats both identically.
    let model = Arc::new(Mlp::new(&[IN, 64, 64, 10]));
    let mut rng = StdRng::seed_from_u64(7);
    let mut params = vec![0.0; TrainModel::param_len(&*model)];
    TrainModel::init_params(&*model, &mut params, &mut rng);

    let cfg =
        ServeConfig { stages: STAGES, max_batch_rows: 8, queue_cap: 64, ..Default::default() };
    let (mut server, recorder) =
        serve_checkpoint(Arc::clone(&model), params.clone(), cfg).expect("server starts");
    // The observability planes: the default alert pack over the live
    // store (shed-burn, starvation, ...) plus a durable journal pmquery
    // can read back after the run.
    let alerts = server.alert_rules(default_rules());
    let fired = Arc::new(Mutex::new(Vec::<String>::new()));
    {
        let fired = Arc::clone(&fired);
        alerts.on_firing(move |t| fired.lock().unwrap().push(t.rule.clone()));
    }
    let journal_dir = out.join("journal");
    server.journal_to(&journal_dir).expect("journal starts");
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
    println!("serving a {IN}-feature MLP over {STAGES} stages on {addr}");
    // With PIPEMARE_STATS_ADDR set the server also answers plain-TCP
    // stats scrapes — point `pmtop` at it while the sweeps run.
    if let Some(stats) = std::env::var("PIPEMARE_STATS_ADDR").ok().filter(|a| !a.is_empty()) {
        let bound = server.serve_stats_tcp(&stats).expect("stats endpoint binds");
        println!("STATS {bound}");
    }

    // --- Concurrent TCP clients, bit-checked ------------------------
    let mut clients = Vec::new();
    for c in 0..4u64 {
        let model = Arc::clone(&model);
        let params = params.clone();
        let addr = addr.to_string();
        clients.push(thread::spawn(move || {
            let transport: Box<dyn Transport> =
                Box::new(TcpTransport::connect(&addr).expect("tcp connect"));
            let mut client = InferClient::connect(transport).expect("client connects");
            client.set_timeout(Some(Duration::from_secs(20))).expect("set timeout");
            let mut rng = StdRng::seed_from_u64(100 + c);
            for i in 0..25usize {
                let rows = 1 + (c as usize + i) % 4;
                let x = Tensor::randn(&[rows, IN], &mut rng);
                let got = client.infer(&x).expect("request served");
                assert_eq!(
                    got,
                    model.logits(&params, &x),
                    "serving must be bit-identical to the training forward"
                );
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    println!("tcp: 4 clients x 25 requests, all bit-identical to Mlp::logits");

    // --- Closed-loop saturation over loopback -----------------------
    let closed = closed_loop(&server, 16, 50, IN);
    println!(
        "closed loop: 16 clients, {:.0} req/s, p50 {} us, p99 {} us",
        closed.served_rps(),
        closed.latency_quantile_us(0.50),
        closed.latency_quantile_us(0.99),
    );

    // --- Open-loop Poisson sweep over loopback ----------------------
    println!("open-loop sweep (8 conns x 100 reqs per point):");
    println!(
        "    {:>10} {:>10} {:>8} {:>9} {:>9}",
        "offered/s", "served/s", "shed", "p50 us", "p99 us"
    );
    for (i, gap_us) in [2_000u64, 500, 100].into_iter().enumerate() {
        let lg = OpenLoopCfg {
            conns: 8,
            requests_per_conn: 100,
            mean_gap_us: gap_us,
            cols: IN,
            seed: 50 + i as u64,
        };
        let rep = open_loop(&server, &lg);
        println!(
            "    {:>10.0} {:>10.0} {:>8} {:>9} {:>9}",
            lg.offered_rps(),
            rep.served_rps(),
            rep.shed,
            rep.latency_quantile_us(0.50),
            rep.latency_quantile_us(0.99),
        );
    }

    // --- Sustained overload: the shed-burn alert must fire -----------
    // The 500 ms hysteresis window needs seconds of continuous
    // saturation, not a short burst, with shed/accepted burning above
    // 10% for several 250 ms journal ticks. A work-conserving server
    // keeps up with most of an 80k req/s schedule (it shed ~6% on a
    // 2-vCPU host), so the schedule offers 320k req/s: more than the
    // senders can push, which makes the overload a firehose whose shed
    // share does not hinge on how fast the host is. 1.2 s of schedule
    // at that rate; slower senders stretch it.
    let lg =
        OpenLoopCfg { conns: 8, requests_per_conn: 48_000, mean_gap_us: 25, cols: IN, seed: 99 };
    let rep = open_loop(&server, &lg);
    println!(
        "sustained overload: offered {:.0}/s, served {:.0}/s, shed {}",
        lg.offered_rps(),
        rep.served_rps(),
        rep.shed,
    );
    let snap = json::parse(&server.live_store().scrape_line()).expect("scrape parses");
    print!("{}", top::render("serve", &snap));
    let fired = fired.lock().unwrap().clone();
    assert!(
        fired.iter().any(|r| r == "shed_burn"),
        "sustained overload must fire the shed_burn alert (fired: {fired:?})"
    );
    println!("alerts fired during the run: {fired:?}");

    let stats = server.shutdown();
    println!(
        "server: accepted {} shed {} served {} over {} batches (mean {:.1} rows)",
        stats.accepted,
        stats.shed,
        stats.served_requests,
        stats.batches,
        stats.batch_rows.iter().map(|&r| r as f64).sum::<f64>() / stats.batches.max(1) as f64,
    );

    let trace = out.join("serving.jsonl");
    let events = recorder.snapshot_events();
    write_jsonl(&events, &trace).expect("write serving trace");
    println!("flight-recorder trace ({} spans) -> {}", events.len(), trace.display());
    println!("analyze with: pmtrace summary {}", trace.display());
    println!("journal -> {}", journal_dir.display());
    println!(
        "query history with: pmquery range {0}   /   pmquery alerts {0}",
        journal_dir.display()
    );
}
