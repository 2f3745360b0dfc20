//! Serving QPS sweep: admission control, work-conserving batching, and
//! the coalescing speedup claim, measured live and replayed
//! deterministically.
//!
//! The run writes `bench_serving.json` with:
//!
//! * deterministic `sim.*` keys gated by `scripts/check_bench.sh` — the
//!   policy simulator ([`pipemare_serve::simulate`]) replays the exact
//!   admission/coalescing/pipeline decisions over fixed arrival traces
//!   in integer microseconds, so shed counts, batch-size histograms,
//!   latency quantiles (p50/p99/p999), the achieved-QPS curve, the
//!   saturation point and the coalescing speedup are bit-identical
//!   across hosts and identical in smoke and full modes;
//! * informational wall-clock keys from live load generation against a
//!   real [`Server`](pipemare_serve::Server): closed-loop saturation
//!   throughput with and without coalescing (`throughput.*`,
//!   `speedup.live_coalescing`) and an open-loop Poisson sweep
//!   (`seconds.open_*`, `metric.open_*`).
//!
//! The paper-level serving claim — coalescing the backlog buys at least
//! 2× the batch-of-1 throughput at saturation — is asserted inside the
//! bench for both the simulated and the live closed-loop comparison,
//! so a policy regression fails the run itself, not just the diff.
//!
//! Passing `--test` anywhere runs a seconds-long smoke version; the
//! deterministic workload and keys are identical in both modes.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_bench::loadgen::{closed_loop, open_loop, OpenLoopCfg};
use pipemare_bench::report::ExperimentLog;
use pipemare_core::serve_checkpoint;
use pipemare_nn::{Mlp, TrainModel};
use pipemare_serve::{poissonish_trace, simulate, ServeConfig, SimConfig};

/// Stated bound enforced by the bench: at saturation, coalescing must
/// serve at least this multiple of the batch-of-1
/// throughput — in the integer-time simulator and in the live
/// closed-loop run.
const BOUND_COALESCE_SPEEDUP: f64 = 2.0;

const COLS: usize = 16;

fn model_and_params() -> (Arc<Mlp>, Vec<f32>) {
    let model = Mlp::new(&[COLS, 64, 64, 10]);
    let mut rng = StdRng::seed_from_u64(17);
    let mut params = vec![0.0; TrainModel::param_len(&model)];
    TrainModel::init_params(&model, &mut params, &mut rng);
    (Arc::new(model), params)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut log = ExperimentLog::new("bench_serving");
    log.push_scalar(
        "host_parallelism",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64,
    );
    log.push_scalar("bound_coalesce_speedup", BOUND_COALESCE_SPEEDUP);

    // --- Deterministic policy-simulator sweep (gated) ---------------
    // Offered load rises as the mean inter-arrival gap shrinks; the
    // service model is affine (80 µs per stage visit + 6 µs per row),
    // so a full 32-row batch costs 8.5 µs/row where a lone request
    // costs ~38 µs/row — the capacity gap coalescing exists to close.
    let sim_cfg =
        SimConfig { stages: 4, max_batch_rows: 32, queue_cap: 64, base_us: 80, per_row_us: 6 };
    let gaps_us: &[u64] = &[1_000, 500, 250, 125, 60, 30, 15, 8];
    let n_req = 2_000;
    let mut s_gap = Vec::new();
    let mut s_offered = Vec::new();
    let mut s_served = Vec::new();
    let mut s_shed = Vec::new();
    let mut s_batches = Vec::new();
    let mut s_rows_milli = Vec::new();
    let mut s_p50 = Vec::new();
    let mut s_p99 = Vec::new();
    let mut s_p999 = Vec::new();
    let mut s_achieved = Vec::new();
    let mut saturation_qps = 0.0f64;
    println!("policy simulator sweep ({n_req} requests/point, 4 stages, 32-row batches):");
    println!(
        "    {:>9} {:>11} {:>7} {:>6} {:>8} {:>9} {:>9} {:>9} {:>11}",
        "gap µs",
        "offered/s",
        "served",
        "shed",
        "batches",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "achieved/s"
    );
    for (i, &gap) in gaps_us.iter().enumerate() {
        let trace = poissonish_trace(40 + i as u64, n_req, gap, 4);
        let span_us = trace.last().expect("non-empty trace").arrival_us.max(1);
        let out = simulate(&sim_cfg, &trace);
        let offered = n_req as f64 * 1e6 / span_us as f64;
        let achieved = out.served as f64 * 1e6 / out.makespan_us.max(1) as f64;
        saturation_qps = saturation_qps.max(achieved);
        println!(
            "    {gap:>9} {offered:>11.0} {:>7} {:>6} {:>8} {:>9} {:>9} {:>9} {achieved:>11.0}",
            out.served,
            out.shed,
            out.batches,
            out.latency_quantile_us(0.50),
            out.latency_quantile_us(0.99),
            out.latency_quantile_us(0.999),
        );
        s_gap.push(gap as f64);
        s_offered.push(offered);
        s_served.push(out.served as f64);
        s_shed.push(out.shed as f64);
        s_batches.push(out.batches as f64);
        s_rows_milli.push(out.mean_batch_rows_milli() as f64);
        s_p50.push(out.latency_quantile_us(0.50) as f64);
        s_p99.push(out.latency_quantile_us(0.99) as f64);
        s_p999.push(out.latency_quantile_us(0.999) as f64);
        s_achieved.push(achieved);
    }
    log.push_series("sim.gap_us", s_gap);
    log.push_series("sim.offered_qps", s_offered);
    log.push_series("sim.served", s_served.clone());
    log.push_series("sim.shed", s_shed.clone());
    log.push_series("sim.batches", s_batches);
    log.push_series("sim.mean_batch_rows_milli", s_rows_milli);
    log.push_series("sim.p50_us", s_p50);
    log.push_series("sim.p99_us", s_p99);
    log.push_series("sim.p999_us", s_p999);
    log.push_series("sim.achieved_qps", s_achieved);
    log.push_scalar("sim.saturation_qps", saturation_qps);
    assert!(
        s_shed.last().copied().unwrap_or(0.0) > 0.0,
        "the sweep must reach overload: the heaviest point shed nothing"
    );

    // Coalescing speedup at overload, simulated: same overload trace,
    // unbounded queue so both policies serve every request and the
    // makespans compare pure throughput.
    let overload = poissonish_trace(99, n_req, 8, 4);
    let unbounded = SimConfig { queue_cap: 1_000_000, ..sim_cfg.clone() };
    let coalesced = simulate(&unbounded, &overload);
    let single = simulate(&SimConfig { max_batch_rows: 1, ..unbounded }, &overload);
    assert_eq!(coalesced.served + single.served, 2 * n_req as u64, "unbounded queues serve all");
    let sim_speedup = single.makespan_us as f64 / coalesced.makespan_us.max(1) as f64;
    println!(
        "simulated overload drain: batch-of-1 {} µs vs coalesced {} µs ({sim_speedup:.2}x)",
        single.makespan_us, coalesced.makespan_us
    );
    log.push_scalar("sim.coalescing_speedup_milli", (sim_speedup * 1000.0).round());
    assert!(
        sim_speedup >= BOUND_COALESCE_SPEEDUP,
        "simulated coalescing speedup {sim_speedup:.2}x under stated bound {BOUND_COALESCE_SPEEDUP}x"
    );

    // --- Live closed-loop latency (informational) -------------------
    // 16 always-busy clients: the classic self-throttling load that
    // reports end-to-end round-trip latency under steady concurrency.
    let (model, params) = model_and_params();
    let clients = 16;
    let reqs = if smoke { 25 } else { 150 };
    let base_cfg =
        ServeConfig { stages: 2, max_batch_rows: 8, queue_cap: 64, ..ServeConfig::default() };
    let (server, _rec) = serve_checkpoint(Arc::clone(&model), params.clone(), base_cfg.clone())
        .expect("bench server starts");
    let closed = closed_loop(&server, clients, reqs, COLS);
    let closed_stats = server.shutdown();
    assert_eq!(closed.served, (clients * reqs) as u64, "closed loop never sheds here");
    println!(
        "live closed loop ({} clients x {} reqs): {:.0} rps, mean batch {:.1} rows, \
         p50 {} µs, p99 {} µs",
        clients,
        reqs,
        closed.served_rps(),
        closed_stats.batch_rows.iter().map(|&r| r as f64).sum::<f64>()
            / closed_stats.batches.max(1) as f64,
        closed.latency_quantile_us(0.50),
        closed.latency_quantile_us(0.99),
    );
    log.push_scalar("throughput.closed_rps", closed.served_rps());
    log.push_scalar("seconds.closed_p50", closed.latency_quantile_us(0.50) as f64 / 1e6);
    log.push_scalar("seconds.closed_p99", closed.latency_quantile_us(0.99) as f64 / 1e6);

    // --- Live open-loop Poisson sweep (informational) ---------------
    // 8 connections fire on a fixed schedule whether or not the server
    // keeps up; latency is measured from the scheduled arrival, so
    // saturation shows up as exploding quantiles and then shed load.
    let open_reqs = if smoke { 50 } else { 300 };
    let mean_gaps: &[u64] = &[2_000, 1_000, 500, 250, 100];
    let (server, _rec) = serve_checkpoint(
        Arc::clone(&model),
        params.clone(),
        ServeConfig { max_batch_rows: 16, ..base_cfg.clone() },
    )
    .expect("bench server starts");
    let mut o_offered = Vec::new();
    let mut o_served = Vec::new();
    let mut o_shed_milli = Vec::new();
    let mut o_p50 = Vec::new();
    let mut o_p99 = Vec::new();
    let mut o_p999 = Vec::new();
    let mut open_saturation = 0.0f64;
    println!("live open loop (8 conns x {open_reqs} reqs/point):");
    println!(
        "    {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "offered/s", "served/s", "shed ‰", "p50 µs", "p99 µs", "p999 µs"
    );
    for (i, &gap) in mean_gaps.iter().enumerate() {
        let cfg = OpenLoopCfg {
            conns: 8,
            requests_per_conn: open_reqs,
            mean_gap_us: gap,
            cols: COLS,
            seed: 70 + i as u64,
        };
        let rep = open_loop(&server, &cfg);
        open_saturation = open_saturation.max(rep.served_rps());
        println!(
            "    {:>10.0} {:>10.0} {:>9.0} {:>9} {:>9} {:>9}",
            cfg.offered_rps(),
            rep.served_rps(),
            rep.shed_fraction() * 1000.0,
            rep.latency_quantile_us(0.50),
            rep.latency_quantile_us(0.99),
            rep.latency_quantile_us(0.999),
        );
        o_offered.push(cfg.offered_rps());
        o_served.push(rep.served_rps());
        o_shed_milli.push(rep.shed_fraction() * 1000.0);
        o_p50.push(rep.latency_quantile_us(0.50) as f64 / 1e6);
        o_p99.push(rep.latency_quantile_us(0.99) as f64 / 1e6);
        o_p999.push(rep.latency_quantile_us(0.999) as f64 / 1e6);
    }
    server.shutdown();
    log.push_series("throughput.open_offered_rps", o_offered);
    log.push_series("throughput.open_served_rps", o_served);
    log.push_series("metric.open_shed_milli", o_shed_milli);
    log.push_series("seconds.open_p50", o_p50);
    log.push_series("seconds.open_p99", o_p99);
    log.push_series("seconds.open_p999", o_p999);
    log.push_scalar("throughput.open_saturation_rps", open_saturation);

    // --- Live overload: coalescing speedup (asserted) ---------------
    // Both servers get the identical far-past-saturation schedule; the
    // open-loop senders never slow down, so the served counts compare
    // pure service capacity. A small queue keeps the one-time
    // queue-drain credit from flattering the slow config.
    let overload = OpenLoopCfg {
        conns: 8,
        requests_per_conn: if smoke { 200 } else { 1_000 },
        mean_gap_us: 50,
        cols: COLS,
        seed: 77,
    };
    let cmp_cfg = ServeConfig { queue_cap: 16, ..base_cfg };
    let overload_run = |cfg: ServeConfig| {
        let (server, _rec) =
            serve_checkpoint(Arc::clone(&model), params.clone(), cfg).expect("bench server starts");
        let report = open_loop(&server, &overload);
        let stats = server.shutdown();
        (report, stats)
    };
    let (co, co_stats) = overload_run(cmp_cfg.clone());
    let (si, _) = overload_run(ServeConfig { max_batch_rows: 1, ..cmp_cfg });
    let live_speedup = co.served as f64 / si.served.max(1) as f64;
    println!(
        "live overload ({:.0} rps offered): coalesced served {} (mean batch {:.1} rows) \
         vs batch-of-1 served {} ({live_speedup:.2}x)",
        overload.offered_rps(),
        co.served,
        co_stats.batch_rows.iter().map(|&r| r as f64).sum::<f64>() / co_stats.batches.max(1) as f64,
        si.served,
    );
    log.push_scalar("throughput.overload_coalesced_rps", co.served_rps());
    log.push_scalar("throughput.overload_single_rps", si.served_rps());
    log.push_scalar("metric.overload_coalesced_shed_milli", co.shed_fraction() * 1000.0);
    log.push_scalar("speedup.live_coalescing", live_speedup);
    assert!(
        live_speedup >= BOUND_COALESCE_SPEEDUP,
        "live coalescing speedup {live_speedup:.2}x under stated bound {BOUND_COALESCE_SPEEDUP}x"
    );

    match log.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write experiment log: {e}"),
    }
    if smoke {
        println!(
            "\nserving smoke OK (sim speedup {sim_speedup:.1}x, live speedup {live_speedup:.1}x)"
        );
    }
}
