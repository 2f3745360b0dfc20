//! End-to-end live observability plane: the in-band wire scrape
//! (`StatsRequest`/`StatsReply`), the plain-TCP stats endpoint, the
//! `pmtop` rendering layer over real scrapes (and pinned byte for byte
//! over a fixed one), and cross-process trace ids surviving a round
//! trip through a live serving frontend.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::{
    channel, loopback_pair, run_stage_worker_opts, spawn_loopback_workers, DistConfig,
    DistributedTrainer, Message, PassKind, StageConfig, TrainConfig, WorkerOptions,
    PROTOCOL_VERSION,
};
use pipemare::nn::{ImageBatch, Mlp, TrainModel};
use pipemare::pipeline::Method;
use pipemare::serve::{InferClient, ServeConfig};
use pipemare::telemetry::analyze;
use pipemare::telemetry::top;
use pipemare::telemetry::{
    scrape_once, ActiveAlert, EventSource, LiveSample, MetricValue, MetricsRegistry, Scrape,
    Severity, SpanKind, StageLive,
};
use pipemare::tensor::{StoragePrecision, Tensor};
use pipemare_core::serve_checkpoint;

use pipemare::optim::{ConstantLr, OptimizerKind, T1Rescheduler};

/// A single-stage worker handshake config covering the whole (tiny)
/// parameter vector.
fn one_stage_config() -> StageConfig {
    StageConfig {
        protocol: PROTOCOL_VERSION,
        stage: 0,
        stages: 1,
        n_micro: 2,
        method: Method::PipeMare,
        param_len: 4,
        shard_lo: 0,
        shard_hi: 4,
        opt: OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
        t2_decay: None,
        gamma: 0.9,
        recomp_slots: None,
        recomp_t2: false,
        warmup_steps: 0,
        weight_storage: StoragePrecision::F32,
    }
}

#[test]
fn stage_worker_answers_in_band_stats_scrape() {
    within("stage_worker_answers_in_band_stats_scrape", || {
        let (driver_end, worker_end) = loopback_pair();
        let worker = thread::spawn(move || {
            let (tx, rx) = channel(Box::new(worker_end))?;
            run_stage_worker_opts(tx, rx, WorkerOptions::default())
        });
        let (mut tx, mut rx) = channel(Box::new(driver_end)).expect("driver channel");

        tx.send(&Message::Hello(one_stage_config())).unwrap();
        match rx.recv().unwrap() {
            Message::HelloAck { protocol, stage, .. } => {
                assert_eq!(protocol, PROTOCOL_VERSION);
                assert_eq!(stage, 0);
            }
            other => panic!("expected HelloAck, got {}", other.name()),
        }
        tx.send(&Message::InitShard { params: vec![0.1, 0.2, 0.3, 0.4] }).unwrap();

        // One forward fetch so the worker records a span — and stamps the
        // microbatch's trace id (0-based id + 1) on the Shard frame.
        tx.send(&Message::FetchShard { step: 0, micro: 0, pass: PassKind::Fwd }).unwrap();
        match rx.recv().unwrap() {
            Message::Shard { micro, trace, .. } => {
                assert_eq!(micro, 0);
                assert_eq!(trace, 1, "shard frames must carry micro's causal trace id");
            }
            other => panic!("expected Shard, got {}", other.name()),
        }

        // The in-band scrape: sampled on demand, answered on the same link.
        tx.send(&Message::StatsRequest { id: 7 }).unwrap();
        match rx.recv().unwrap() {
            Message::StatsReply { id, frame } => {
                assert_eq!(id, 7);
                let scrape = Scrape::decode(&frame).expect("stats frame decodes");
                assert_eq!(scrape.role, "worker-0");
                let latest = scrape.latest().expect("on-demand scrape must carry a fresh sample");
                assert!(latest.seq >= 1, "on-demand scrape must carry a fresh sample");
                // Wire gauges bound at handshake mirror the link traffic.
                let Some(MetricValue::Gauge(tx_bytes)) =
                    latest.metrics.get("wire.orchestrator.tx_bytes")
                else {
                    panic!("wire tx gauge present");
                };
                assert!(*tx_bytes > 0.0, "worker has sent frames by now");
                // The scrape renders as a pmtop block without panicking.
                let text = top::render("worker", &scrape);
                assert!(text.contains("role worker-0"), "{text}");
            }
            other => panic!("expected StatsReply, got {}", other.name()),
        }

        tx.send(&Message::Shutdown).unwrap();
        match rx.recv().unwrap() {
            Message::Telemetry { .. } => {}
            other => panic!("expected Telemetry, got {}", other.name()),
        }
        match rx.recv().unwrap() {
            Message::ShutdownAck { .. } => {}
            other => panic!("expected ShutdownAck, got {}", other.name()),
        }
        worker.join().expect("worker thread").expect("worker exits cleanly");
    })
}

#[test]
fn serve_server_scrapes_over_tcp_and_traces_requests() {
    within("serve_server_scrapes_over_tcp_and_traces_requests", || {
        let model = Arc::new(Mlp::new(&[4, 12, 3]));
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = vec![0.0; TrainModel::param_len(&*model)];
        TrainModel::init_params(&*model, &mut params, &mut rng);
        let cfg = ServeConfig { stages: 2, ..Default::default() };
        let (mut server, recorder) =
            serve_checkpoint(Arc::clone(&model), params.clone(), cfg).expect("server starts");
        let stats = server.serve_stats_tcp("127.0.0.1:0").expect("stats endpoint binds");

        let mut client =
            InferClient::connect(Box::new(server.connect_loopback())).expect("client connects");
        client.set_timeout(Some(Duration::from_secs(20))).unwrap();
        for _ in 0..3 {
            let x = Tensor::randn(&[1, 4], &mut rng);
            assert_eq!(client.infer(&x).expect("served"), model.logits(&params, &x));
        }

        // Deterministic freshness: sample explicitly instead of waiting out
        // the background ticker's period.
        server.live_store().sample();
        let frame = scrape_once(&stats.to_string(), Duration::from_secs(2)).expect("scrape");
        let scrape = Scrape::decode(&frame).expect("scrape decodes");
        assert_eq!(scrape.role, "serve");
        assert_eq!(scrape.n_stages, 2);
        let metrics = &scrape.latest().expect("sampled").metrics;
        let Some(MetricValue::Counter(accepted)) = metrics.get("serve.accepted") else {
            panic!("serve.accepted counter present");
        };
        assert!(*accepted >= 3, "three requests were admitted, metric says {accepted}");
        assert!(metrics.get("serve.batch_rows").is_some(), "batch-size histogram exported");
        let text = top::render(&stats.to_string(), &scrape);
        assert!(text.contains("serve:"), "pmtop renders the serve line:\n{text}");

        // Request 0's trace id (0 + 1) reconstructs a cross-thread path:
        // queue wait -> its batch's coalesce -> the engine's stage forwards.
        let events = recorder.snapshot_events();
        let path = analyze::trace_path(&events, 1);
        assert!(
            path.iter().any(|e| e.kind == SpanKind::QueueWaitFwd),
            "path must include the request's queue wait"
        );
        assert!(
            path.iter().filter(|e| e.kind == SpanKind::Forward).count() >= 2,
            "path must include every stage's forward hop"
        );
        server.shutdown();
    })
}

#[test]
fn orchestrator_live_store_sees_stages_and_wire_traffic() {
    within("orchestrator_live_store_sees_stages_and_wire_traffic", || {
        let model = Mlp::new(&[4, 10, 2]);
        let stages = 2;
        let n_micro = 2;
        let cfg = DistConfig::new(TrainConfig::pipemare(
            stages,
            n_micro,
            OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(24),
            0.9,
        ));
        let (transports, handles) = spawn_loopback_workers(stages);
        let mut trainer =
            DistributedTrainer::connect(&model, cfg, 3, transports).expect("trainer connects");
        let weights = vec![1.0 / n_micro as f32; n_micro];
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2 {
            let micro: Vec<ImageBatch> = (0..n_micro)
                .map(|_| ImageBatch { x: Tensor::randn(&[4, 4], &mut rng), y: vec![0, 1, 0, 1] })
                .collect();
            trainer.train_minibatch(&micro, &weights).expect("minibatch trains");
        }

        let store = trainer.live_store();
        store.sample();
        let scrape = Scrape::decode(&store.scrape().expect("scrape encodes")).expect("decodes");
        assert_eq!(scrape.role, "orchestrator");
        let metrics = &scrape.latest().expect("sampled").metrics;
        for s in 0..stages {
            let g = match metrics.get(&format!("wire.stage{s}.tx_bytes")) {
                Some(MetricValue::Gauge(g)) => *g,
                _ => 0.0,
            };
            assert!(g > 0.0, "stage {s} wire gauge must reflect sent traffic");
        }
        assert!(store.latest().is_some(), "store holds a sample");
        trainer.shutdown().expect("clean shutdown");
        for h in handles {
            h.join().expect("worker thread").expect("worker ok");
        }
    })
}

// ---------------------------------------------------------------------------
// pmtop's dashboard and delta blocks, pinned byte for byte
// ---------------------------------------------------------------------------

/// Two samples of a serving worker on a 2-stage pipeline: in the latest
/// (seq 9) window it accepted 40 requests and shed 2, and two alerts
/// are firing.
fn pinned_scrape() -> Scrape {
    let reg = MetricsRegistry::new();
    reg.gauge("health.stage0.alpha_margin").set(0.113);
    reg.counter("serve.accepted").add(1160);
    reg.counter("serve.shed").add(15);
    reg.gauge("serve.queue_depth").set(3.0);
    let rows = reg.histogram("serve.batch_rows", &[4.0, 8.0]);
    for _ in 0..10 {
        rows.observe(6.0);
    }
    for (name, v) in
        [("tx_bytes", 1.5e6), ("rx_bytes", 9e5), ("tx_frames", 5300.0), ("rx_frames", 4100.0)]
    {
        reg.gauge(&format!("wire.peer0.{name}")).set(v);
    }
    let before = reg.snapshot();
    reg.counter("serve.accepted").add(40);
    reg.counter("serve.shed").add(2);
    let row = |stage, util, fwd_us, bkwd_us, recomp_us, wait_us, tau, events| StageLive {
        stage,
        util,
        fwd_us,
        bkwd_us,
        recomp_us,
        wait_us,
        tau,
        tau_pairs: 12,
        events,
    };
    let sample = |seq, ts_us, metrics| LiveSample {
        seq,
        ts_us,
        window_us: 250_000,
        stages: vec![
            row(0, 0.93, 40.5, 81.0, f64::NAN, 1200, 2.98, 48),
            row(1, 0.88, 39.0, 80.0, 22.0, 800, 1.05, 50),
        ],
        metrics,
        sample_cost_us: 42,
    };
    let alert = |rule: &str, label: &str, severity, since_ts_us, value| ActiveAlert {
        rule: rule.into(),
        label: label.into(),
        severity,
        since_ts_us,
        value,
    };
    Scrape {
        role: "worker-1".into(),
        n_stages: 2,
        max_sample_cost_us: 80,
        alerts: vec![
            alert("alpha_margin_floor", "stage1", Severity::Critical, 750_000, 0.42),
            alert("shed_burn", "", Severity::Warn, 500_000, 0.31),
        ],
        samples: vec![sample(8, 650_000, before), sample(9, 900_000, reg.snapshot())],
    }
}

/// The dashboard block as the JSON-scrape renderer drew it for the same
/// sample.
const PINNED_DASHBOARD: &str = "\
== 127.0.0.1:9100   role worker-1   seq 9   window 250.0 ms   sample cost 42 µs (max 80) ==
stage   util%   fwd_µs   bkwd_µs  recomp_µs   wait_µs   tau meas/nom   alpha_margin
    0    93.0     40.5      81.0          -      1200       2.98/3.0         +0.113
    1    88.0     39.0      80.0       22.0       800       1.05/1.0              -
serve: queue depth 3   accepted 1200 (+40)   shed 17 (8.0/s)   batch rows p50 6.0
wire: tx 1.50 MB (5300 frames)   rx 900.0 KB (4100 frames)
ALERTS (2 firing)
  CRITICAL alpha_margin_floor [stage1]   value 0.420   since 0.8 s
  WARN     shed_burn   value 0.310   since 0.5 s
";

/// The delta block as the JSON-scrape renderer drew it, plus the τ
/// percentage each stage row now ends with.
const PINNED_DELTA: &str = "\
== pmtop delta: worker (baseline -> current) ==
stage   util base->cur        tau base->cur
    0   0.465 -> 0.930 (+100.0%)    2.50 -> 2.98  (+19.2%)
    1   0.880 -> 0.880 (+0.0%)    1.05 -> 1.05  (+0.0%)
counter                      base -> cur
serve.accepted                 600 -> 1200    (+100.0%)
serve.shed                      17 -> 17      (+0.0%)
";

#[test]
fn pmtop_blocks_match_the_pinned_render() {
    within("pmtop_blocks_match_the_pinned_render", || {
        let scrape = pinned_scrape();
        // Through the wire form, so the pin holds for what pmtop receives.
        let scrape = Scrape::decode(&scrape.encode().unwrap()).unwrap();
        assert_eq!(top::render("127.0.0.1:9100", &scrape), PINNED_DASHBOARD);

        let cur = scrape.latest().unwrap();
        let mut base = cur.clone();
        base.stages[0].util = 0.465;
        base.stages[0].tau = 2.5;
        base.metrics.metrics[1].1 = MetricValue::Counter(600);
        let (text, json) = top::diff("== pmtop delta: worker (baseline -> current) ==", &base, cur);
        assert_eq!(text, PINNED_DELTA);
        assert_eq!(
            json.to_compact(),
            "{\"stages\":[{\"stage\":0,\"util_base\":0.465,\"util_cur\":0.93,\"tau_base\":2.5,\
             \"tau_cur\":2.98},{\"stage\":1,\"util_base\":0.88,\"util_cur\":0.88,\"tau_base\":1.05,\
             \"tau_cur\":1.05}],\"counters\":{\"serve.accepted\":{\"base\":600,\"cur\":1200},\
             \"serve.shed\":{\"base\":17,\"cur\":17}}}"
        );
    })
}

// ---------------------------------------------------------------------------
// NTP-lite offset alignment under skewed clocks
// ---------------------------------------------------------------------------

use pipemare::telemetry::{merge_worker_events, sort_events, TraceEvent, NO_TRACE};
use proptest::prelude::*;

mod common;
use common::within;

fn span(track: u32, ts_us: u64) -> TraceEvent {
    TraceEvent {
        kind: SpanKind::Forward,
        track,
        stage: track,
        microbatch: 0,
        ts_us,
        dur_us: 1,
        trace: NO_TRACE,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The handshake's NTP-lite estimate (worker clock sampled between
    /// two driver clock reads, offset = clock − midpoint) aligns merged
    /// traces to within half the handshake round trip: every merged
    /// timestamp lands within rtt/2 of its true driver time, and any
    /// two events from different workers separated by more than the
    /// worst rtt keep their true order after the merge.
    #[test]
    fn skewed_worker_clocks_align_within_half_rtt(
        skews in proptest::collection::vec(0u64..10_000_000, 2..5),
        rtts in proptest::collection::vec(2u64..5_000, 2..5),
        sample_fracs in proptest::collection::vec(0u64..=100, 2..5),
        seed in 0u64..1_000,
    ) {
        let workers = skews.len().min(rtts.len()).min(sample_fracs.len());
        let max_rtt = rtts[..workers].iter().copied().max().unwrap();
        // True driver-time instants, one event per worker per round,
        // spaced > max_rtt so cross-worker order is decidable.
        let base = 50_000_000u64;
        let gap = max_rtt + 1_000 + seed;
        let mut merged = Vec::new();
        let mut truth = Vec::new(); // (true driver ts, worker)
        for (w, ((&skew, &rtt), &frac)) in
            skews.iter().zip(&rtts).zip(&sample_fracs).take(workers).enumerate()
        {
            // Handshake: driver reads t_d0, worker samples its clock at
            // some point inside the round trip, driver reads t_d1.
            let t_d0 = 1_000u64;
            let t_d1 = t_d0 + rtt;
            let t_sample = t_d0 + rtt * frac / 100;
            let clock_us = t_sample + skew; // the worker's HelloAck clock
            let offset = clock_us as i64 - ((t_d0 + t_d1) / 2) as i64;

            let events: Vec<TraceEvent> = (0..4u64)
                .map(|round| {
                    let true_ts = base + round * workers as u64 * gap + w as u64 * gap;
                    truth.push((true_ts, w));
                    span(w as u32, true_ts + skew) // worker-clock stamp
                })
                .collect();
            merge_worker_events(&mut merged, &events, w as u32, offset);
        }
        sort_events(&mut merged);
        truth.sort_unstable();

        // 1. Residual error bounded by half the handshake round trip.
        for (ev, &(true_ts, w)) in merged.iter().zip(&truth) {
            prop_assert_eq!(ev.track as usize, w, "order must match truth");
            let err = ev.ts_us.abs_diff(true_ts);
            prop_assert!(
                err <= rtts[w] / 2 + 1,
                "worker {} merged ts {} vs true {} (err {} > rtt/2 {})",
                w, ev.ts_us, true_ts, err, rtts[w] / 2
            );
        }
    }
}
