//! A deterministic discrete-event simulator of the serving policy:
//! admission control + work-conserving batching + staged forward
//! pipeline.
//!
//! The live server's latency numbers depend on wall clocks and
//! scheduler jitter, which makes them useless as regression-gated
//! bench keys. This module re-runs the *same policy decisions* —
//! which requests get shed, how requests coalesce into batches, when
//! each batch clears each stage — over a fixed arrival trace in pure
//! integer microsecond arithmetic on top of
//! [`pipemare_pipeline::ForwardPipeline`]. Every output (batch count,
//! shed count, batch-size histogram, latency quantiles of the
//! simulated clock) is bit-identical across hosts, so `check_bench`
//! can gate on them while wall-clock keys stay informational.

use pipemare_pipeline::ForwardPipeline;

/// One request in an arrival trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimRequest {
    /// Arrival time in simulated microseconds.
    pub arrival_us: u64,
    /// Input rows carried by the request.
    pub rows: u32,
}

/// Policy knobs mirrored from [`crate::ServeConfig`], plus the affine
/// per-stage service-time model `base_us + per_row_us * rows`.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Pipeline stages.
    pub stages: usize,
    /// Maximum rows coalesced into one batch.
    pub max_batch_rows: u32,
    /// Admission queue capacity in requests.
    pub queue_cap: usize,
    /// Fixed per-batch cost of one stage visit, in µs.
    pub base_us: u64,
    /// Additional per-row cost of one stage visit, in µs.
    pub per_row_us: u64,
}

/// What came out of one simulated run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimOutcome {
    /// Requests that ran to completion.
    pub served: u64,
    /// Requests shed by admission control (queue full on arrival).
    pub shed: u64,
    /// Batches dispatched into the pipeline.
    pub batches: u64,
    /// Rows of each dispatched batch, in dispatch order.
    pub batch_rows: Vec<u32>,
    /// Per-served-request latency (arrival → batch completion), µs,
    /// sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Completion time of the last batch, µs.
    pub makespan_us: u64,
}

impl SimOutcome {
    /// The `q`-quantile (0.0..=1.0) of the sorted latency list via the
    /// nearest-rank method; 0 when nothing was served.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        quantile(&self.latencies_us, q)
    }

    /// Mean rows per dispatched batch ×1000 (integer, exact).
    pub fn mean_batch_rows_milli(&self) -> u64 {
        if self.batch_rows.is_empty() {
            return 0;
        }
        let total: u64 = self.batch_rows.iter().map(|&r| r as u64).sum();
        total * 1000 / self.batch_rows.len() as u64
    }
}

/// Nearest-rank quantile of a sorted slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the serving policy over `trace` (must be sorted by arrival
/// time) and returns the deterministic outcome.
///
/// The model mirrors the live batcher:
/// - a request arriving while the queue holds `queue_cap` pending
///   requests is shed;
/// - a batch is dispatched at the later of the first pending arrival
///   and stage 0 becoming free ([`ForwardPipeline::next_admit_us`]),
///   and takes every request that has arrived by then, in FIFO order,
///   until the next one would exceed `max_batch_rows`;
/// - each member's latency runs from its arrival to the batch leaving
///   the last stage.
///
/// # Panics
///
/// Panics if the config fails basic validation or the trace is
/// unsorted.
pub fn simulate(cfg: &SimConfig, trace: &[SimRequest]) -> SimOutcome {
    assert!(cfg.stages >= 1, "stages must be at least 1");
    assert!(cfg.max_batch_rows >= 1, "max_batch_rows must be at least 1");
    assert!(cfg.queue_cap >= 1, "queue_cap must be at least 1");
    assert!(
        trace.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us),
        "arrival trace must be sorted"
    );

    let mut pipe = ForwardPipeline::new(cfg.stages);
    let mut out = SimOutcome::default();
    let mut queue: std::collections::VecDeque<SimRequest> = std::collections::VecDeque::new();
    let mut next = 0usize; // next trace index not yet admitted/shed

    // Admit every request arriving at or before `t`; shed on overflow.
    // Mirrors the live reader threads, which enqueue independently of
    // the batcher.
    fn admit_until(
        t: u64,
        trace: &[SimRequest],
        next: &mut usize,
        queue: &mut std::collections::VecDeque<SimRequest>,
        cap: usize,
        shed: &mut u64,
    ) {
        while *next < trace.len() && trace[*next].arrival_us <= t {
            if queue.len() < cap {
                queue.push_back(trace[*next]);
            } else {
                *shed += 1;
            }
            *next += 1;
        }
    }

    loop {
        if queue.is_empty() {
            if next >= trace.len() {
                break;
            }
            // Jump the clock to the next arrival and admit it.
            let t = trace[next].arrival_us;
            admit_until(t, trace, &mut next, &mut queue, cfg.queue_cap, &mut out.shed);
        }
        // Work-conserving: the batch leaves as soon as there is a
        // request and stage 0 can take it, with the whole backlog that
        // has built up by then, up to the cap.
        let first = *queue.front().expect("queue is non-empty here");
        let dispatch = first.arrival_us.max(pipe.next_admit_us());
        admit_until(dispatch, trace, &mut next, &mut queue, cfg.queue_cap, &mut out.shed);
        let mut members: Vec<SimRequest> = Vec::new();
        let mut rows = 0u32;
        while let Some(&req) = queue.front() {
            if rows > 0 && rows + req.rows > cfg.max_batch_rows {
                break;
            }
            rows += req.rows;
            members.push(req);
            queue.pop_front();
        }
        let svc: Vec<u64> = vec![cfg.base_us + cfg.per_row_us * rows as u64; cfg.stages];
        let done = pipe.admit(dispatch, &svc);
        out.batches += 1;
        out.batch_rows.push(rows);
        out.makespan_us = out.makespan_us.max(done);
        for m in &members {
            out.served += 1;
            out.latencies_us.push(done - m.arrival_us);
        }
    }
    out.latencies_us.sort_unstable();
    out
}

/// A deterministic bursty arrival trace with integer-only arithmetic.
///
/// Gaps are drawn from a burst mixture — with probability 1/4 the gap
/// is 0 (requests arrive back-to-back), otherwise uniform in
/// `[1, 8·mean_gap_us/3]` — giving an overall mean inter-arrival time
/// of `mean_gap_us` and the clumpy arrivals that stress coalescing.
/// Uses a splitmix64 generator so no float RNG (and no libm calls)
/// touches the gated bench keys.
pub fn poissonish_trace(seed: u64, n: usize, mean_gap_us: u64, rows_max: u32) -> Vec<SimRequest> {
    assert!(rows_max >= 1, "rows_max must be at least 1");
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next_u64 = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut t = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let r = next_u64();
        let gap = if r % 4 == 0 {
            0
        } else {
            // Uniform in [1, span] with mean (span+1)/2 = 4·mean/3, so
            // the mixture mean is 3/4 · 4·mean/3 = mean.
            let span = (8 * mean_gap_us / 3).max(1);
            1 + (r >> 2) % span
        };
        t += gap;
        let rows = 1 + (next_u64() % rows_max as u64) as u32;
        out.push(SimRequest { arrival_us: t, rows });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> SimConfig {
        SimConfig { stages: 3, max_batch_rows: 8, queue_cap: 16, base_us: 50, per_row_us: 10 }
    }

    #[test]
    fn single_request_pays_service_only() {
        let cfg = base_cfg();
        let trace = [SimRequest { arrival_us: 1000, rows: 2 }];
        let out = simulate(&cfg, &trace);
        assert_eq!(out.served, 1);
        assert_eq!(out.shed, 0);
        assert_eq!(out.batches, 1);
        assert_eq!(out.batch_rows, vec![2]);
        // Dispatched on arrival, then 3 stages × (50 + 10·2) µs.
        assert_eq!(out.latencies_us, vec![3 * 70]);
    }

    #[test]
    fn a_backlog_behind_a_busy_stage_0_forms_the_next_batch() {
        let cfg = base_cfg();
        // The first request dispatches alone at t=0 and holds stage 0
        // for 60 µs; the three that arrive meanwhile leave together.
        let trace: Vec<SimRequest> =
            [0, 10, 20, 30].iter().map(|&arrival_us| SimRequest { arrival_us, rows: 1 }).collect();
        let out = simulate(&cfg, &trace);
        assert_eq!(out.batch_rows, vec![1, 3]);
    }

    #[test]
    fn back_to_back_arrivals_coalesce_up_to_cap() {
        let cfg = base_cfg();
        // 10 single-row requests at t=0: cap is 8 rows, so one full
        // batch dispatches immediately and two leftovers form batch 2.
        let trace: Vec<SimRequest> =
            (0..10).map(|_| SimRequest { arrival_us: 0, rows: 1 }).collect();
        let out = simulate(&cfg, &trace);
        assert_eq!(out.served, 10);
        assert_eq!(out.shed, 0);
        assert_eq!(out.batch_rows, vec![8, 2]);
    }

    #[test]
    fn full_queue_sheds_overflow() {
        let mut cfg = base_cfg();
        cfg.queue_cap = 4;
        cfg.max_batch_rows = 4;
        // 12 requests at t=0: admission happens before any pop, so 4
        // are queued and 8 shed.
        let trace: Vec<SimRequest> =
            (0..12).map(|_| SimRequest { arrival_us: 0, rows: 1 }).collect();
        let out = simulate(&cfg, &trace);
        assert_eq!(out.shed, 8);
        assert_eq!(out.served, 4);
    }

    #[test]
    fn simulate_is_deterministic_and_trace_is_stable() {
        let cfg = base_cfg();
        let trace = poissonish_trace(42, 500, 120, 4);
        assert_eq!(trace, poissonish_trace(42, 500, 120, 4));
        let a = simulate(&cfg, &trace);
        let b = simulate(&cfg, &trace);
        assert_eq!(a, b);
        assert_eq!(a.served + a.shed, 500);
        // Sanity: the bursty trace actually produces multi-row batches.
        assert!(a.mean_batch_rows_milli() > 1000, "expected coalescing to happen");
    }

    #[test]
    fn trace_mean_gap_is_near_target() {
        let trace = poissonish_trace(7, 4000, 200, 3);
        let span = trace.last().unwrap().arrival_us - trace[0].arrival_us;
        let mean = span / (trace.len() as u64 - 1);
        assert!((120..=280).contains(&mean), "mean gap {mean} far from 200");
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = vec![10, 20, 30, 40];
        assert_eq!(quantile(&v, 0.5), 20);
        assert_eq!(quantile(&v, 0.99), 40);
        assert_eq!(quantile(&v, 0.0), 10);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn coalescing_beats_batch_of_one_throughput_in_sim() {
        // Same heavy trace, coalescing on vs. max_batch_rows=1, with a
        // queue deep enough that neither config sheds: the batched
        // config must finish far sooner (amortized per-batch base cost).
        let trace = poissonish_trace(3, 1000, 10, 2);
        let mut batched = base_cfg();
        batched.max_batch_rows = 32;
        batched.queue_cap = 100_000;
        let mut single = batched.clone();
        single.max_batch_rows = 1;
        let b = simulate(&batched, &trace);
        let s = simulate(&single, &trace);
        assert_eq!(b.served, 1000);
        assert_eq!(s.served, 1000);
        assert!(
            s.makespan_us > 2 * b.makespan_us,
            "coalescing should beat batch-of-1 by >2x: batched {} vs single {}",
            b.makespan_us,
            s.makespan_us
        );
    }
}
