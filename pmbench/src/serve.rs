//! The run shape of `serve_mlp_open`: an open-loop load generator against
//! a live `Server` over TCP.
//!
//! One run is [`ROUNDS`] cold rounds. A round starts the server, connects,
//! sends `W` sequential requests (start plus warm-up is one `setup_s`
//! sample), then offers Poisson arrivals at three fixed rates over one
//! connection. A paced sender thread and a receiver thread share the
//! connection, so a slow server cannot throttle the offered rate, and
//! latency counts from the instant a request was *due*, not from when it
//! was sent. The number of requests per phase is a constant of the rate
//! and `--seconds`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{
    micro, out_dir, Reply, ReplyRx, RequestTx, ServeCounts, ServeRig, ServeTelemetry, SERVE_COLS,
};
use crate::alloc;
use crate::harness::{hash_f32, steal_ticks, Laps, Outcome, RunCfg, ROUNDS, SETUP_ONLY_ROUNDS};
use crate::stats::{median, quantile, quietest_round, quietest_segments, Better};
use crate::trace;

/// Sequential warm-up requests per round.
const WARMUP_REQUESTS: usize = 400;
/// A reply later than this after its scheduled send does not count as
/// goodput.
const LATENCY_LIMIT: Duration = Duration::from_millis(20);
/// Latency and goodput are taken per slice of scheduled send time.
const SLICE: Duration = Duration::from_millis(250);
/// Every n-th reply is compared with `InferModel::infer` bit for bit.
const SAMPLE_EVERY: u64 = 61;
/// Seconds per round at the nominal run length.
const PHASE_SECS: [(&str, f64, f64); 3] =
    [("lo", 3000.0, 3.0), ("hi", 6000.0, 3.0), ("overload", 30000.0, 2.0)];
/// Extra rates offered in traced rounds only, to find `serve.max_rate_rps`.
const LADDER_RPS: [f64; 4] = [9000.0, 12000.0, 16000.0, 20000.0];
const LADDER_SECS: f64 = 1.0;

/// The request row for `id`: cheap, and a function of the seed and the id
/// alone so the receiver can rebuild it for the bit check.
fn row_for(seed: u64, id: u64) -> Vec<f32> {
    let mut state = seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..SERVE_COLS)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Cumulative Poisson arrival times of `n` requests at `rate` per second.
fn schedule(rng: &mut StdRng, n: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[derive(Default)]
struct Phase {
    name: &'static str,
    rate: f64,
    sent: u64,
    results: u64,
    shed: u64,
    rejected: u64,
    wrong: u64,
    /// `(scheduled send, latency from it)` of every result, in seconds.
    latencies: Vec<(f64, f64)>,
    sender_lag_us: Vec<f64>,
    span_s: f64,
    /// The server's counters over the phase, for the batch statistics
    /// (read while it may still be one reply behind the client).
    server: ServeCounts,
}

impl Phase {
    fn unanswered(&self) -> u64 {
        self.sent - self.results - self.shed - self.rejected
    }

    /// Whole slices of the phase, each with the latencies of the requests
    /// scheduled in it.
    fn slices(&self) -> Vec<Vec<f64>> {
        let whole = (self.span_s / SLICE.as_secs_f64()).floor() as usize;
        let mut slices = vec![Vec::new(); whole];
        for &(due, latency) in &self.latencies {
            if let Some(slice) = slices.get_mut((due / SLICE.as_secs_f64()) as usize) {
                slice.push(latency);
            }
        }
        slices
    }

    fn slice_median_latency_ms(&self) -> Vec<f64> {
        self.slices().iter().filter(|s| !s.is_empty()).map(|s| median(s) * 1e3).collect()
    }

    /// Replies within the latency limit per second, slice by slice.
    fn slice_goodput_rps(&self) -> Vec<f64> {
        let limit = LATENCY_LIMIT.as_secs_f64();
        self.slices()
            .iter()
            .map(|s| s.iter().filter(|&&l| l <= limit).count() as f64 / SLICE.as_secs_f64())
            .collect()
    }

    fn latency_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies.iter().map(|&(_, l)| l * 1e3).collect::<Vec<_>>(), q)
    }

    fn goodput_rps(&self) -> f64 {
        let limit = LATENCY_LIMIT.as_secs_f64();
        self.latencies.iter().filter(|&&(_, l)| l <= limit).count() as f64 / self.span_s
    }

    /// Meets the limit at p99 with nothing shed and no backlog left
    /// growing: the last slice's median is within the limit too.
    fn sustains(&self) -> bool {
        let limit_ms = LATENCY_LIMIT.as_secs_f64() * 1e3;
        let settled = self.slice_median_latency_ms().last().is_some_and(|&l| l <= limit_ms);
        self.shed + self.rejected + self.unanswered() == 0
            && self.latency_ms(0.99) <= limit_ms
            && settled
    }
}

/// Offers `n` requests on `due` over one connection and collects every
/// reply. Ids start at `base` so a straggler of an earlier phase is told
/// apart.
fn offer(
    rig: &ServeRig,
    conn: &mut (RequestTx, ReplyRx),
    seed: u64,
    base: u64,
    due: &[Duration],
    phase: &mut Phase,
) {
    let (tx, rx) = conn;
    let n = due.len() as u64;
    let before = rig.counts();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lags = Vec::with_capacity(due.len());
            for (i, &at) in due.iter().enumerate() {
                let target = epoch + at;
                if let Some(wait) = target.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let id = base + i as u64;
                if !tx.send(id, &row_for(seed, id)) {
                    break;
                }
                lags.push(target.elapsed().as_nanos() as f64 / 1e3);
            }
            lags
        });
        // Sized up front, so the harness's own memory is the same in
        // every run and `peak_heap_mb` moves with the system only.
        phase.latencies = Vec::with_capacity(due.len());
        let mut sampled = Vec::with_capacity(due.len() / SAMPLE_EVERY as usize + 1);
        let mut answered = 0;
        while answered < n {
            // `None` is the receive timeout: whatever is still missing
            // stays unanswered.
            let Some(reply) = rx.recv() else { break };
            let now = Instant::now();
            let id = match &reply {
                Reply::Result { id, .. } | Reply::Shed { id } | Reply::Rejected { id } => *id,
            };
            if id < base || id >= base + n {
                continue;
            }
            answered += 1;
            match reply {
                Reply::Result { id, data } => {
                    let at = due[(id - base) as usize];
                    let latency = now.saturating_duration_since(epoch + at);
                    phase.latencies.push((at.as_secs_f64(), latency.as_secs_f64()));
                    phase.results += 1;
                    if id % SAMPLE_EVERY == 0 {
                        sampled.push((id, data));
                    }
                }
                Reply::Shed { .. } => phase.shed += 1,
                Reply::Rejected { .. } => phase.rejected += 1,
            }
        }
        phase.sender_lag_us = sender.join().expect("the sender thread does not panic");
        phase.sent = phase.sender_lag_us.len() as u64;
        phase.wrong = sampled
            .iter()
            .filter(|(id, data)| {
                let want = rig.reference(&row_for(seed, *id));
                data.len() != want.len()
                    || data.iter().zip(&want).any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .count() as u64;
    });
    phase.span_s = due.last().map_or(0.0, Duration::as_secs_f64);
    let after = rig.counts();
    phase.server = ServeCounts {
        accepted: after.accepted - before.accepted,
        shed: after.shed - before.shed,
        rejected: after.rejected - before.rejected,
        served: after.served - before.served,
        batches: after.batches - before.batches,
        batch_rows: after.batch_rows - before.batch_rows,
    };
}

struct Round {
    traced: bool,
    /// Seconds of start and connect, then of each sequential warm-up
    /// request: time to ready, segment by segment.
    setup_parts: Vec<f64>,
    start_ms: f64,
    closed_rtt_us: Vec<f64>,
    warmup_wrong: u64,
    warmup_answered: u64,
    phases: Vec<Phase>,
    /// The server's counters after it shut down.
    server: ServeCounts,
    telemetry: ServeTelemetry,
    requests: u64,
    /// Client-side `(frames, bytes)` of the sequential warm-up requests,
    /// both directions. One is in flight at a time, so none is ever shed
    /// and the traffic is exact.
    warmup_wire: (u64, u64),
    peak_heap: usize,
    /// Hash of the reference output for the round's first request row.
    reference_hash: u64,
}

/// One cold round; without `load` it stops once the server is ready.
fn run_round(cfg: &RunCfg, index: usize, traced: bool, load: bool) -> Round {
    let seed = cfg.seed.wrapping_add(index as u64 * 0x51_7cc1);
    alloc::take_peak_bytes();
    let mut laps = Laps::start();
    let rig = ServeRig::start();
    let mut client = rig.closed_client();
    let mut setup_parts = vec![laps.lap()];
    // Tracing covers the sequential requests (one span tree each) and the
    // engine's stage forwards; the open-loop generator records no spans.
    trace::set_enabled(traced);
    let mut closed_rtt_us = Vec::with_capacity(WARMUP_REQUESTS);
    let (mut warmup_wrong, mut warmup_answered) = (0, 0);
    for i in 0..WARMUP_REQUESTS as u64 {
        trace::set_op(index as u64 * 1_000_000 + i);
        let row = row_for(seed, i);
        let t = Instant::now();
        let reply = {
            let _span = trace::span("serve.request");
            client.infer(&row)
        };
        closed_rtt_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        warmup_answered += u64::from(reply.is_some());
        let want = rig.reference(&row);
        let right = reply.is_some_and(|got| {
            got.len() == want.len()
                && got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        warmup_wrong += u64::from(!right);
        setup_parts.push(laps.lap());
    }
    drop(client);
    let wire = rig.wire();
    let warmup_wire = (wire.tx_frames + wire.rx_frames, wire.tx_bytes + wire.rx_bytes);

    let rng = &mut StdRng::seed_from_u64(seed);
    let mut conn = rig.open_conn(Duration::from_secs(5));
    let mut phases = Vec::new();
    let mut base = WARMUP_REQUESTS as u64;
    let mut plan: Vec<(&'static str, f64, f64)> =
        if load { PHASE_SECS.to_vec() } else { Vec::new() };
    if traced && load {
        // Between `hi` and `overload`, so the ladder climbs.
        plan.splice(2..2, LADDER_RPS.iter().map(|&rate| ("ladder", rate, LADDER_SECS)));
    }
    for (name, rate, secs) in plan {
        let n = (rate * secs * cfg.scale).round() as usize;
        let due = schedule(rng, n, rate);
        let mut phase = Phase { name, rate, ..Phase::default() };
        offer(&rig, &mut conn, seed, base, &due, &mut phase);
        base += n as u64;
        phases.push(phase);
    }
    trace::set_enabled(false);
    drop(conn);
    let start_ms = rig.start_ms;
    let reference_hash = hash_f32(&rig.reference(&row_for(seed, 0)));
    let (server, telemetry) = rig.shutdown();
    Round {
        traced,
        setup_parts,
        start_ms,
        closed_rtt_us,
        warmup_wrong,
        warmup_answered,
        phases,
        server,
        telemetry,
        requests: base,
        warmup_wire,
        peak_heap: alloc::take_peak_bytes(),
        reference_hash,
    }
}

fn phase<'a>(round: &'a Round, name: &str) -> &'a Phase {
    round.phases.iter().find(|p| p.name == name).expect("every round runs every phase")
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let wall = Instant::now();
    let steal_before = steal_ticks();
    let rounds: Vec<Round> =
        (0..ROUNDS).map(|r| run_round(cfg, r, cfg.trace && r % 2 == 1, true)).collect();
    let setup_only: Vec<Round> = if cfg.trace {
        Vec::new()
    } else {
        (0..SETUP_ONLY_ROUNDS).map(|r| run_round(cfg, ROUNDS + r, false, false)).collect()
    };
    let w = &cfg.workload;
    let mut out = Outcome::default();

    // ---- correctness -----------------------------------------------------
    let all = || rounds.iter().flat_map(|r| r.phases.iter());
    let every = || rounds.iter().chain(&setup_only);
    out.attempted = every().map(|r| r.requests).sum();
    // A request refused because the queue was full got the typed answer
    // admission control exists to give: it is scored (it misses every
    // latency limit, so it is missing from goodput), not failed. A stall
    // of the host longer than queue_cap ÷ rate sheds even in `lo` and `hi`.
    out.failed = every().map(|r| r.warmup_wrong).sum::<u64>()
        + all().map(|p| p.rejected + p.wrong + p.unanswered()).sum::<u64>();
    out.check("no_request_failed", out.failed == 0, format!("{} of {}", out.failed, out.attempted));
    let wrong = every().map(|r| r.warmup_wrong).sum::<u64>() + all().map(|p| p.wrong).sum::<u64>();
    out.check("replies_equal_infer", wrong == 0, format!("{wrong} sampled replies differ"));
    let conserved = all().all(|p| p.sent == p.results + p.shed + p.rejected);
    out.check("sent_is_answered_plus_refused", conserved, "per phase");
    let agree = every().all(|r| {
        let sum = |f: fn(&Phase) -> u64| r.phases.iter().map(f).sum::<u64>();
        r.server.served == r.warmup_answered + sum(|p| p.results)
            && r.server.shed == sum(|p| p.shed)
            && r.server.rejected == sum(|p| p.rejected)
    });
    out.check("client_and_server_counters_agree", agree, "served, shed and rejected per round");

    for (i, r) in rounds.iter().enumerate() {
        for p in &r.phases {
            println!(
                "round {i} {} {} rps: sent {} results {} shed {} rejected {} unanswered {} p50 {:.3} ms \
                 p99 {:.3} ms goodput {:.0} rps sender lag p99 {:.0} us",
                p.name,
                p.rate,
                p.sent,
                p.results,
                p.shed,
                p.rejected,
                p.unanswered(),
                p.latency_ms(0.5),
                p.latency_ms(0.99),
                p.goodput_rps(),
                quantile(&p.sender_lag_us, 0.99)
            );
        }
    }

    // ---- exact counts ------------------------------------------------------
    let (frames, bytes) = rounds[0].warmup_wire;
    let warmup = WARMUP_REQUESTS as u64;
    out.exact(&format!("{w}.attempted"), out.attempted);
    out.exact(&format!("{w}.reference_hash_row0"), format!("{:016x}", rounds[0].reference_hash));
    out.exact(&format!("{w}.comms.frames_per_request"), frames / warmup);
    out.exact(&format!("{w}.comms.wire_bytes_per_request"), bytes / warmup);

    // ---- end to end --------------------------------------------------------
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let lo_ms = |rs: &[&Round]| -> f64 {
        let slices: Vec<Vec<f64>> =
            rs.iter().map(|r| phase(r, "lo").slice_median_latency_ms()).collect();
        quietest_round(&slices, Better::Lower)
    };
    let op_ms_quiet = lo_ms(&untraced);
    if !cfg.trace {
        let goodput: Vec<Vec<f64>> =
            rounds.iter().map(|r| phase(r, "overload").slice_goodput_rps()).collect();
        let parts: Vec<Vec<f64>> = every().map(|r| r.setup_parts.clone()).collect();
        out.put("setup_s", quietest_segments(&parts));
        out.put("throughput_per_s", quietest_round(&goodput, Better::Higher));
        out.put("op_ms_quiet", op_ms_quiet);
        let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_heap as f64 / 1e6).collect();
        out.put("peak_heap_mb", median(&peaks));
        return out;
    }

    // ---- per layer ---------------------------------------------------------
    let spans = trace::snapshot();
    out.check(
        "spans_nest",
        trace::nesting_violations(&spans) == 0,
        format!("{} spans, children within their parents", spans.len()),
    );
    let path = out_dir().join(format!("{w}.trace.jsonl"));
    out.check("trace_written", trace::write_jsonl(&path, &spans).is_ok(), path.display());

    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    for name in ["lo", "hi"] {
        out.put(&format!("serve.p50_ms_{name}"), med(&|r| phase(r, name).latency_ms(0.5)));
        out.put(&format!("serve.p99_ms_{name}"), med(&|r| phase(r, name).latency_ms(0.99)));
    }
    for name in ["lo", "hi", "overload"] {
        let rows = |r: &Round| {
            let s = phase(r, name).server;
            s.batch_rows as f64 / s.batches.max(1) as f64
        };
        out.put(&format!("serve.batch_rows_mean_{name}"), med(&rows));
    }
    out.put(
        "serve.batches_per_s_hi",
        med(&|r| {
            let p = phase(r, "hi");
            p.server.batches as f64 / p.span_s
        }),
    );
    let overload_goodput = med(&|r| phase(r, "overload").goodput_rps());
    out.put("serve.goodput_rps_overload", overload_goodput);
    out.put(
        "serve.shed_share_overload",
        med(&|r| {
            let p = phase(r, "overload");
            p.shed as f64 / p.sent.max(1) as f64
        }),
    );
    // The fixed ladder: lo, hi and the traced-only rates, in rising order.
    let max_rate = |r: &Round| {
        r.phases.iter().take_while(|p| p.sustains()).map(|p| p.rate).last().unwrap_or(0.0)
    };
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    // The ladder climbs in traced rounds only; the better one counts, as
    // with every timing.
    out.put("serve.max_rate_rps", traced.iter().map(|r| max_rate(r)).fold(0.0, f64::max));
    // Saturation goodput: the most any phase of the round delivered.
    let saturation = med(&|r| r.phases.iter().map(Phase::goodput_rps).fold(0.0, f64::max));
    out.put("serve.goodput_over_saturation", overload_goodput / saturation);
    let waits: Vec<f64> =
        rounds.iter().flat_map(|r| r.telemetry.queue_wait_us.iter().copied()).collect();
    out.put("serve.queue_wait_us_p50", quantile(&waits, 0.5));
    let rtts: Vec<f64> = untraced.iter().flat_map(|r| r.closed_rtt_us.iter().copied()).collect();
    out.put("serve.closed_rtt_us_p50", quantile(&rtts, 0.5));
    out.put("serve.start_ms", med(&|r| r.start_ms));

    let events_per_request = med(&|r| r.telemetry.flight_events as f64 / r.requests as f64);
    out.put("telemetry.events_per_request", events_per_request);
    out.put("comms.frames_per_step", frames as f64 / warmup as f64);
    out.put("comms.wire_bytes_per_step", bytes as f64 / warmup as f64);
    for (name, value) in micro(w, cfg.seed) {
        out.put(&name, value);
    }
    let event_ns = out.metrics.get("telemetry.flight_ns_per_event").copied().unwrap_or(0.0);
    out.put(
        "telemetry.observed_step_overhead_share",
        events_per_request * event_ns / (op_ms_quiet * 1e6),
    );

    out.put("pmbench.trace_overhead_share", lo_ms(&traced) / op_ms_quiet - 1.0);
    let lags: Vec<f64> = all().flat_map(|p| p.sender_lag_us.iter().copied()).collect();
    out.put("pmbench.sender_lag_us_p99", quantile(&lags, 0.99));
    out.put("pmbench.host_steal_ticks", (steal_ticks() - steal_before) as f64);
    out.put("pmbench.run_wall_s", wall.elapsed().as_secs_f64());
    out
}
