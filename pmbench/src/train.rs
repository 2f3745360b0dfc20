//! The run shape of the three training workloads.
//!
//! One run is [`ROUNDS`] cold rounds. A round constructs data, model and
//! trainer, runs `W` warm-up steps (construction plus warm-up is one
//! `setup_s` sample), then `M` measured steps, then tears everything
//! down. The counts are constants of the workload and of `--seconds`, so
//! `attempted` is the same in every run. Timings are the quiet decile of
//! the per-step samples pooled over the rounds.

use std::time::Instant;

use crate::adapter::{self, RoundEnd, RoundSetup, TrainSpec, WireSnapshot};
use crate::alloc;
use crate::harness::{hash_f32, scaled, Laps, Outcome, RunCfg, ROUNDS, SETUP_ONLY_ROUNDS};
use crate::stats::{mean, median, quantile, quietest_round, quietest_segments, Better};
use crate::trace;

/// Losses compared across rounds and printed as exact bits; also the
/// step count after which the distributed run is checked against the
/// in-process trainer.
const PINNED_STEPS: usize = 8;

/// `core.steps_to_target`: the first step at which the mean of the last
/// eight losses is at most this share of the mean of the first eight.
const TARGET_LOSS_SHARE: f64 = 0.8;

#[derive(Default)]
struct Round {
    traced: bool,
    /// Seconds of construction, then of each warm-up step: time to ready,
    /// segment by segment.
    setup_parts: Vec<f64>,
    setup: RoundSetup,
    end: RoundEnd,
    losses: Vec<f32>,
    failed: u64,
    iter_ns: Vec<f64>,
    step_ns: Vec<f64>,
    batch_ns: Vec<f64>,
    /// Allocation calls and bytes of the last measured step.
    step_allocs: (u64, u64),
    /// Driver-side traffic summed over the measured steps.
    wire: WireSnapshot,
    peak_heap: usize,
    param_hash: u64,
    params_after_pinned: Option<Vec<f32>>,
    eval_ms: f64,
    model_calls: u64,
    cache_bytes: u64,
    model_allocs: [u64; 3],
}

fn run_round(cfg: &RunCfg, spec: &TrainSpec, measured: usize, index: usize, traced: bool) -> Round {
    let mut round = Round { traced, ..Round::default() };
    let cross_check = index == 0 && cfg.workload == adapter::WIDEMLP;
    alloc::take_peak_bytes();
    let mut laps = Laps::start();
    let end = adapter::train_round(&cfg.workload, cfg.seed, &mut |rig, setup| {
        round.setup = *setup;
        round.setup_parts.push(laps.lap());
        for _ in 0..spec.warmup {
            rig.next_batch();
            let out = rig.step();
            round.losses.push(out.loss);
            round.failed += u64::from(out.failed);
            round.setup_parts.push(laps.lap());
        }

        trace::set_enabled(traced);
        let calls_before = rig.model_calls();
        for i in 0..measured {
            trace::set_op((index * 1_000_000 + i) as u64);
            let t0 = Instant::now();
            let iter = trace::span("iter");
            {
                let _span = trace::span("data.batch");
                rig.next_batch();
            }
            let (wire_before, allocs_before) = (rig.wire(), alloc::totals());
            let t1 = Instant::now();
            let out = {
                let _span = trace::span("core.step");
                rig.step()
            };
            let t2 = Instant::now();
            drop(iter);
            let allocs = alloc::totals();
            round.step_allocs = (allocs.0 - allocs_before.0, allocs.1 - allocs_before.1);
            round.wire.add_between(wire_before, rig.wire());
            round.iter_ns.push((t2 - t0).as_nanos() as f64);
            round.step_ns.push((t2 - t1).as_nanos() as f64);
            round.batch_ns.push((t1 - t0).as_nanos() as f64);
            round.losses.push(out.loss);
            round.failed += u64::from(out.failed);
            // Between two timed iterations, so the gather is in no sample.
            if cross_check && round.losses.len() == PINNED_STEPS {
                round.params_after_pinned = Some(rig.params());
            }
        }
        trace::set_enabled(false);
        round.model_calls = rig.model_calls() - calls_before;
        round.cache_bytes = rig.cache_bytes();
        round.model_allocs = rig.model_allocs();

        round.param_hash = hash_f32(&rig.params());
        let t = Instant::now();
        std::hint::black_box(rig.eval());
        round.eval_ms = t.elapsed().as_secs_f64() * 1e3;
    });
    round.end = end;
    round.peak_heap = alloc::take_peak_bytes();
    round
}

fn pooled(rounds: &[&Round], field: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|r| field(r).iter().copied()).collect()
}

/// The quiet decile of the quietest of `rounds`, for one per-step cost.
fn quiet(rounds: &[&Round], field: impl Fn(&Round) -> &Vec<f64>) -> f64 {
    let samples: Vec<Vec<f64>> = rounds.iter().map(|r| field(r).clone()).collect();
    quietest_round(&samples, Better::Lower)
}

fn loss_bits(losses: &[f32]) -> String {
    let bits: Vec<String> =
        losses.iter().take(PINNED_STEPS).map(|l| format!("{:08x}", l.to_bits())).collect();
    bits.join(",")
}

fn mean_f32(values: &[f32]) -> f64 {
    mean(&values.iter().map(|&v| f64::from(v)).collect::<Vec<_>>())
}

/// First step (1-based) at which the eight-step mean loss has fallen to
/// [`TARGET_LOSS_SHARE`] of where it started; the step count when it
/// never does.
fn steps_to_target(losses: &[f32]) -> usize {
    let start = mean_f32(&losses[..PINNED_STEPS]);
    (PINNED_STEPS..=losses.len())
        .find(|&end| mean_f32(&losses[end - PINNED_STEPS..end]) <= TARGET_LOSS_SHARE * start)
        .unwrap_or(losses.len())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let spec = adapter::train_spec(&cfg.workload).expect("a training workload");
    let measured = scaled(spec.measured_30s, cfg.scale, PINNED_STEPS);
    let wall = Instant::now();
    let steal_before = crate::harness::steal_ticks();

    // A traced run alternates untraced and traced rounds, so the two
    // sides of `trace_overhead_share` see the same host.
    let rounds: Vec<Round> =
        (0..ROUNDS).map(|r| run_round(cfg, &spec, measured, r, cfg.trace && r % 2 == 1)).collect();
    let mut setup_parts: Vec<Vec<f64>> = rounds.iter().map(|r| r.setup_parts.clone()).collect();
    let mut setup_failed = 0;
    if !cfg.trace {
        for r in 0..SETUP_ONLY_ROUNDS {
            let round = run_round(cfg, &spec, 0, ROUNDS + r, false);
            setup_parts.push(round.setup_parts);
            setup_failed += round.failed;
        }
    }

    let mut out = Outcome::default();
    let w = &cfg.workload;
    let steps_per_round = spec.warmup + measured;
    out.attempted = (ROUNDS * steps_per_round + (setup_parts.len() - ROUNDS) * spec.warmup) as u64;
    out.failed = rounds.iter().map(|r| r.failed).sum::<u64>() + setup_failed;

    // ---- correctness -----------------------------------------------------
    let first = &rounds[0];
    out.check("no_step_failed", out.failed == 0, format!("{} of {}", out.failed, out.attempted));
    let (head, tail) = (
        mean_f32(&first.losses[..PINNED_STEPS]),
        mean_f32(&first.losses[steps_per_round - PINNED_STEPS..]),
    );
    out.check(
        "loss_falls",
        tail < head,
        format!("first 8 mean {head:.4} -> last 8 mean {tail:.4}"),
    );
    let same = rounds.iter().all(|r| {
        r.param_hash == first.param_hash && loss_bits(&r.losses) == loss_bits(&first.losses)
    });
    out.check(
        "rounds_bit_identical",
        same,
        format!("first {PINNED_STEPS} losses and parameter hash over {ROUNDS} rounds"),
    );
    if let Some(got) = &first.params_after_pinned {
        let want = adapter::reference_params(w, cfg.seed, PINNED_STEPS);
        let equal = got.len() == want.len()
            && got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(
            "tcp_equals_inprocess",
            equal,
            format!("{} gathered parameters after {PINNED_STEPS} steps", got.len()),
        );
    }
    if cfg.workload == adapter::WIDEMLP {
        let committed = rounds.iter().all(|r| {
            r.end.teardown_ok && r.end.worker_steps.iter().all(|&s| s == steps_per_round as u64)
        });
        out.check(
            "workers_committed_every_step",
            committed,
            format!("{steps_per_round} per round"),
        );
    }

    // ---- exact counts ------------------------------------------------------
    let (flops, kernel_calls) = adapter::kernel_counts_per_step(w, cfg.seed);
    let to_target = steps_to_target(&first.losses);
    out.exact(&format!("{w}.attempted"), out.attempted);
    out.exact(&format!("{w}.loss_bits_first{PINNED_STEPS}"), loss_bits(&first.losses));
    out.exact(&format!("{w}.param_hash"), format!("{:016x}", first.param_hash));
    out.exact(&format!("{w}.nn.flops_per_step"), flops);
    out.exact(&format!("{w}.tensor.kernel_calls_per_step"), kernel_calls);
    out.exact(&format!("{w}.core.steps_to_target"), to_target);
    let wire_bytes = first.wire.tx_bytes + first.wire.rx_bytes - first.wire.telemetry_bytes;
    let frames = first.wire.tx_frames + first.wire.rx_frames;
    if cfg.workload == adapter::WIDEMLP {
        // Other threads allocate here, so only the wire counts are exact.
        out.exact(&format!("{w}.comms.wire_bytes_per_step"), wire_bytes / measured as u64);
        out.exact(&format!("{w}.comms.frames_per_step"), frames / measured as u64);
    } else {
        out.exact(&format!("{w}.core.allocs_per_step"), first.step_allocs.0);
        out.exact(&format!("{w}.core.alloc_bytes_per_step"), first.step_allocs.1);
    }

    // ---- end to end --------------------------------------------------------
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let step_quiet_ms = quiet(&untraced, |r| &r.step_ns) / 1e6;
    if !cfg.trace {
        out.put("setup_s", quietest_segments(&setup_parts));
        out.put(
            "throughput_per_s",
            spec.minibatch as f64 / (quiet(&untraced, |r| &r.iter_ns) / 1e9),
        );
        out.put("op_ms_quiet", step_quiet_ms);
        let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_heap as f64 / 1e6).collect();
        out.put("peak_heap_mb", median(&peaks));
        return out;
    }

    // ---- per layer ---------------------------------------------------------
    let spans = trace::snapshot();
    let totals = trace::totals(&spans);
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let traced_steps = (traced.len() * measured) as f64;
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let step_total = of("core.step").total_ns as f64;
    let per_step_ms = |ns: u64| ns as f64 / traced_steps / 1e6;
    let share = |ns: u64| ns as f64 / step_total;

    out.check(
        "spans_nest",
        trace::nesting_violations(&spans) == 0,
        format!("{} spans, children within their parents", spans.len()),
    );
    let wire_ns = of("comms.send").total_ns + of("comms.recv").total_ns;
    let model_ns = of("nn.fwd").total_ns + of("nn.bwd").total_ns + of("nn.recomp_fwd").total_ns;
    let sum = share(of("core.step").self_ns) + share(model_ns) + share(wire_ns);
    out.check(
        "shares_sum_to_one",
        (sum - 1.0).abs() <= 0.02,
        format!("self + nn + wire = {sum:.4}"),
    );
    let path = adapter::out_dir().join(format!("{w}.trace.jsonl"));
    let written = trace::write_jsonl(&path, &spans);
    out.check("trace_written", written.is_ok(), path.display());

    out.put("nn.fwd_ms", per_step_ms(of("nn.fwd").total_ns));
    out.put("nn.bwd_ms", per_step_ms(of("nn.bwd").total_ns));
    out.put("nn.recomp_fwd_ms", per_step_ms(of("nn.recomp_fwd").total_ns));
    out.put("nn.fwd_share", share(of("nn.fwd").total_ns + of("nn.recomp_fwd").total_ns));
    out.put("nn.bwd_share", share(of("nn.bwd").total_ns));
    out.put("nn.calls_per_step", first.model_calls as f64 / measured as f64);
    out.put("nn.flops_per_step", flops as f64);
    let achieved = flops as f64 / (model_ns as f64 / traced_steps);
    out.put("nn.achieved_gflops", achieved);
    let allocs =
        traced.iter().fold([0u64; 3], |acc, r| [0, 1, 2].map(|i| acc[i] + r.model_allocs[i]));
    out.put("nn.allocs_per_fwd_bwd", allocs[0] as f64 / allocs[2].max(1) as f64);
    out.put("nn.alloc_bytes_per_fwd_bwd", allocs[1] as f64 / allocs[2].max(1) as f64);
    out.put("nn.cache_bytes", traced.iter().map(|r| r.cache_bytes).max().unwrap_or(0) as f64);

    out.put(
        "data.generate_ms",
        median(&rounds.iter().map(|r| r.setup.generate_ms).collect::<Vec<_>>()),
    );
    out.put("data.batch_us", quiet(&untraced, |r| &r.batch_ns) / 1e3);
    out.put("data.wait_share", of("data.batch").total_ns as f64 / of("iter").total_ns as f64);

    let steps_ms: Vec<f64> = pooled(&untraced, |r| &r.step_ns).iter().map(|ns| ns / 1e6).collect();
    out.put("core.step_self_ms", per_step_ms(of("core.step").self_ns));
    out.put("core.step_self_share", share(of("core.step").self_ns));
    out.put("core.step_burst_ratio", mean(&steps_ms) / step_quiet_ms);
    out.put("core.step_ms_p50", quantile(&steps_ms, 0.5));
    out.put("core.step_ms_p95", quantile(&steps_ms, 0.95));
    out.put("core.allocs_per_step", first.step_allocs.0 as f64);
    out.put("core.alloc_bytes_per_step", first.step_allocs.1 as f64);
    out.put(
        "core.trainer_new_ms",
        median(&rounds.iter().map(|r| r.setup.trainer_new_ms).collect::<Vec<_>>()),
    );
    out.put("core.eval_ms", median(&rounds.iter().map(|r| r.eval_ms).collect::<Vec<_>>()));
    out.put("core.steps_to_target", to_target as f64);
    out.put("core.time_to_target_s", to_target as f64 * step_quiet_ms / 1e3);

    // Isolated timings on the workload's own shapes; a measurement from the
    // run itself, where there is one below, replaces the isolated one.
    for (name, value) in adapter::micro(w, cfg.seed) {
        out.put(&name, value);
    }
    if cfg.workload == adapter::WIDEMLP {
        let m = measured as f64;
        out.put("comms.wire_bytes_per_step", wire_bytes as f64 / m);
        out.put("comms.tx_bytes_per_step", first.wire.tx_bytes as f64 / m);
        out.put("comms.rx_bytes_per_step", first.wire.rx_bytes as f64 / m);
        out.put("comms.frames_per_step", frames as f64 / m);
        out.put("comms.bytes_per_param_step", wire_bytes as f64 / m / first.setup.param_len as f64);
        out.put("comms.telemetry_bytes_per_step", first.wire.telemetry_bytes as f64 / m);
        out.put("comms.send_ms_per_step", per_step_ms(of("comms.send").total_ns));
        out.put("comms.recv_wait_ms_per_step", per_step_ms(of("comms.recv").total_ns));
        out.put("comms.wire_share", share(wire_ns));
        out.put(
            "comms.handshake_ms",
            median(&rounds.iter().map(|r| r.setup.handshake_ms).collect::<Vec<_>>()),
        );
        let worker_steps: Vec<Vec<f64>> =
            rounds.iter().map(|r| r.end.worker_step_us.clone()).collect();
        // The workers' own spans: the optimizer as it ran, on each shard.
        out.put("optim.step_us", quietest_round(&worker_steps, Better::Lower));
        out.put("telemetry.events_per_step", first.end.events as f64 / steps_per_round as f64);
        let telemetry_ns: u64 = traced.iter().map(|r| r.wire.telemetry_recv_ns).sum();
        out.put("telemetry.observed_step_overhead_share", telemetry_ns as f64 / step_total);
    }

    let roofline = ["tensor.gemm_gflops_conv", "tensor.gemm_gflops_attn", "tensor.gemm_gflops_b16"]
        .iter()
        .filter_map(|k| out.metrics.get(*k))
        .fold(0.0f64, |a, &b| a.max(b));
    out.put("nn.roofline_share", if roofline > 0.0 { achieved / roofline } else { 0.0 });

    let traced_quiet_ms = quiet(&traced, |r| &r.step_ns) / 1e6;
    out.put("pmbench.trace_overhead_share", traced_quiet_ms / step_quiet_ms - 1.0);
    out.put("pmbench.host_steal_ticks", (crate::harness::steal_ticks() - steal_before) as f64);
    out.put("pmbench.run_wall_s", wall.elapsed().as_secs_f64());
    out
}
