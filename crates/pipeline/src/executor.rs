//! A real multi-threaded pipeline used to validate the throughput model.
//!
//! Each stage runs on its own thread and walks its op timeline from a
//! [`PipelinePlan`]: microbatch tokens flow down the chain, turn around
//! at the last stage and flow back, each carrying its op's payload. The
//! schedule — GPipe draining the pipeline at every minibatch boundary
//! (the bubble), PipeDream/PipeMare keeping it full, PipeMare Recompute
//! replaying segments — is entirely in the plan, and what an op does is
//! the stage's [`StageWork`]. Under [`Sleep`], measured wall-clock
//! throughputs reproduce the `N/(N+P−1)` bubble penalty of Table 1, and
//! the [`ActivationLedger`] peaks the analytical memory model.
//!
//! A stage exits after the last op of its list, so shutdown never
//! depends on channel-disconnection ordering (which is cyclic in a
//! bidirectional pipeline).

use std::time::{Duration, Instant};

use crossbeam_channel::unbounded;
use pipemare_telemetry::{Recorder, SpanKind, NO_MICROBATCH};

use crate::plan::{Link, PipelinePlan};
use crate::recompute::{ActivationLedger, StageOp, StageOpKind};

/// What a stage does for each op of its timeline; one value per stage.
pub trait StageWork: Send {
    /// What travels on a link between neighbouring stages.
    type Payload: Send;
    /// Runs `op`. `input` arrived on the link [`PipelinePlan::needs`]
    /// names (`None` for an op that needs none and for a token the driver
    /// injected); the result leaves on [`PipelinePlan::feeds`], and is
    /// dropped where nothing is fed and at the driver (stage 0's backward).
    fn run(&mut self, op: &StageOp, input: Option<Self::Payload>) -> Self::Payload;
}

/// Work as *latency*: `d` per forward or replay, `2d` per backward (the paper's compute split).
/// Concurrent sleeps overlap like accelerator stages even on one core, where spins serialize.
#[derive(Clone, Copy, Debug)]
pub struct Sleep(pub Duration);

impl StageWork for Sleep {
    type Payload = ();
    fn run(&mut self, op: &StageOp, _input: Option<()>) {
        std::thread::sleep(if op.kind == StageOpKind::Bkwd { 2 * self.0 } else { self.0 });
    }
}

/// Result of a pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Microbatches fully processed (forward + backward).
    pub microbatches: usize,
    /// Microbatches per second.
    pub throughput: f64,
    /// Measured per-stage peak live activation-buffer counts — equal to
    /// [`crate::RecomputePolicy::expected_peaks`] under 1F1B once the run
    /// is long enough to fill the steady state (`≥ 2P−1` microbatches).
    pub peak_activations: Vec<usize>,
    /// Replay (recompute) forward passes executed across all stages.
    pub recompute_ops: usize,
}

/// Runs one op of stage `stage`'s timeline: `work.run(op, input)`, whose
/// result it returns, and the spans it leaves on the stage's track — a
/// `QueueWaitFwd`/`QueueWaitBkwd` span from `waited_since` when the stage
/// blocked on a token first, then the `Forward`/`Recompute`/`Backward`
/// span stamped with the microbatch's causal trace id (ids are 0-based;
/// trace 0 means "absent").
///
/// Both stage loops — [`run_pipeline`]'s threads and the comms crate's
/// token worker — call this for every op, which is why an in-process and
/// a distributed run of one plan record the same spans.
pub fn run_stage_op<W: StageWork, R: Recorder>(
    op: &StageOp,
    stage: u32,
    work: &mut W,
    input: Option<W::Payload>,
    waited_since: Option<u64>,
    recorder: &R,
) -> W::Payload {
    let (span, wait_span) = match op.kind {
        StageOpKind::Fwd => (SpanKind::Forward, SpanKind::QueueWaitFwd),
        StageOpKind::Recomp => (SpanKind::Recompute, SpanKind::QueueWaitFwd),
        StageOpKind::Bkwd => (SpanKind::Backward, SpanKind::QueueWaitBkwd),
    };
    let t0 = recorder.now_us();
    if let Some(since) = waited_since {
        recorder.record_span(wait_span, stage, stage, NO_MICROBATCH, since, t0);
    }
    let out = work.run(op, input);
    let (micro, trace) = (op.micro as u32, op.micro as u64 + 1);
    recorder.record_span_traced(span, stage, stage, micro, trace, t0, recorder.now_us());
    out
}

/// Runs `plan` on one thread per stage, stage `s` doing `work[s]`, and
/// returns the measured throughput and activation peaks.
///
/// A stage thread walks its timeline in order: it blocks on the token the
/// next op needs, acquires an activation buffer from `ledger` where the
/// op says so, runs the op ([`run_stage_op`]), releases the buffer after
/// a backward, and passes the token on with the op's payload. All
/// channels are unbounded: the fixed op order is itself the throttle, and
/// every dependency points to a strictly earlier slot of the plan's
/// schedule, so the run cannot deadlock. The calling thread is the driver
/// (track `stages`): it injects every microbatch into stage 0 with an
/// `Inject` instant, records a `Flush` span over each GPipe drain, and
/// one over the final drain of every run.
///
/// The recorder is generic so that passing
/// [`pipemare_telemetry::NullRecorder`] monomorphizes every telemetry
/// call to nothing — the untraced hot path stays free of clock reads and
/// locks. Build the ledger [`ActivationLedger::with_registry`] to publish
/// live per-stage activation-byte gauges.
///
/// # Panics
///
/// Panics if `work` or the ledger was built for a different stage count.
pub fn run_pipeline<W: StageWork, R: Recorder>(
    plan: &PipelinePlan,
    work: &mut [W],
    recorder: &R,
    ledger: &ActivationLedger,
) -> PipelineReport {
    let (stages, total) = (plan.stages(), plan.total());
    assert_eq!(work.len(), stages, "one StageWork per stage");
    assert_eq!(ledger.peaks().len(), stages, "ledger sized for a different stage count");
    // chans[s][link]: the (microbatch, payload) tokens arriving at stage s on each link.
    let chans: Vec<_> = (0..stages).map(|_| Link::ALL.map(|_| unbounded())).collect();
    let (done_tx, done_rx) = unbounded();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (s, work) in work.iter_mut().enumerate() {
            // Each thread holds only its own receivers and its
            // neighbours' senders, so a stage that dies disconnects its
            // neighbours instead of leaving them blocked.
            let rx = Link::ALL.map(|link| chans[s][link as usize].1.clone());
            let tx = Link::ALL.map(|link| match link.target(s, stages) {
                Some(to) => Some(chans[to][link as usize].0.clone()),
                None => (link == Link::Bkwd).then(|| done_tx.clone()),
            });
            scope.spawn(move || {
                // Stage workers are already one-thread-per-stage; nested
                // kernel parallelism would oversubscribe the host, so any
                // tensor kernels invoked from a stage run serially (the
                // pool-nesting rule).
                pipemare_tensor::pool::serial_scope(|| {
                    for op in plan.timeline(s) {
                        let mut input = None;
                        let waited_since = plan.needs(s, op).map(|link| {
                            let since = recorder.now_us();
                            let id;
                            (id, input) = rx[link as usize].recv().expect("neighbour stage alive");
                            assert_eq!(id, op.micro, "stage {s}: {link:?} token out of order");
                            since
                        });
                        if op.acquires {
                            ledger.acquire(s);
                        }
                        let out = run_stage_op(op, s as u32, work, input, waited_since, recorder);
                        if op.kind == StageOpKind::Bkwd {
                            ledger.release(s);
                        }
                        if let Some(link) = plan.feeds(s, op) {
                            let tx = tx[link as usize].as_ref().expect("fed link has a target");
                            tx.send((op.micro, Some(out))).expect("neighbour stage alive");
                        }
                    }
                })
            });
        }
        // Driver: inject microbatch tokens.
        let driver_track = stages as u32;
        let inject = chans[0][Link::Fwd as usize].0.clone();
        drop(chans);
        drop(done_tx);
        let mut completed = 0usize;
        let mut drain_to = |upto: usize| {
            let flush_start = recorder.now_us();
            while completed < upto {
                done_rx.recv().expect("pipeline alive");
                completed += 1;
            }
            let now = recorder.now_us();
            recorder.record_span(SpanKind::Flush, driver_track, 0, NO_MICROBATCH, flush_start, now);
        };
        for id in 0..total {
            inject.send((id, None)).expect("pipeline alive");
            recorder.record_instant(SpanKind::Inject, driver_track, 0, id as u32);
            if plan.flush_every().is_some_and(|n_micro| (id + 1) % n_micro == 0) {
                // Synchronous flush: wait for this minibatch to drain.
                drain_to(id + 1);
            }
        }
        drain_to(total);
    });
    let elapsed = start.elapsed();
    PipelineReport {
        elapsed,
        microbatches: total,
        throughput: total as f64 / elapsed.as_secs_f64(),
        peak_activations: ledger.peaks(),
        recompute_ops: plan.recompute_ops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::Method;
    use crate::recompute::RecomputePolicy;
    use pipemare_telemetry::NullRecorder;

    fn run(plan: PipelinePlan, work: Duration) -> PipelineReport {
        let ledger = ActivationLedger::new(plan.stages(), 1);
        run_pipeline(&plan, &mut vec![Sleep(work); plan.stages()], &NullRecorder, &ledger)
    }

    fn run_method(
        method: Method,
        stages: usize,
        n_micro: usize,
        minibatches: usize,
        work: Duration,
    ) -> PipelineReport {
        run(PipelinePlan::for_method(method, stages, n_micro, minibatches), work)
    }

    fn run_policy(
        policy: RecomputePolicy,
        stages: usize,
        n_micro: usize,
        minibatches: usize,
        work: Duration,
    ) -> PipelineReport {
        run(PipelinePlan::for_recompute(policy, stages, n_micro, minibatches), work)
    }

    #[test]
    fn completes_all_microbatches() {
        let r = run_method(Method::PipeMare, 3, 4, 2, Duration::from_micros(50));
        assert_eq!(r.microbatches, 8);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn single_stage_degenerate_case() {
        let r = run_method(Method::GPipe, 1, 2, 3, Duration::from_micros(20));
        assert_eq!(r.microbatches, 6);
    }

    #[test]
    fn recompute_run_peaks_match_memory_model() {
        use crate::cost::ActivationModel;
        // 8 microbatches ≥ 2P−1 = 7 fills the steady state at P = 4.
        let work = Duration::from_micros(20);
        let model = ActivationModel { p: 4 };
        let r = run_policy(RecomputePolicy::Segmented { segment: 2 }, 4, 4, 2, work);
        assert_eq!(r.microbatches, 8);
        assert_eq!(r.peak_activations, model.profile_recompute(2));
        // Stages 0 and 1 form the only replay segment: one replay per
        // microbatch per stage.
        assert_eq!(r.recompute_ops, 2 * 8);
        let stash = run_policy(RecomputePolicy::StashAll, 4, 4, 2, work);
        assert_eq!(stash.peak_activations, model.profile_no_recompute());
        assert_eq!(stash.recompute_ops, 0);
        // A plain PipeMare run is the stash-everything schedule, and its
        // ledger says so.
        let plain = run_method(Method::PipeMare, 4, 4, 2, work);
        assert_eq!(plain.peak_activations, RecomputePolicy::StashAll.expected_peaks(4));
        assert_eq!(plain.recompute_ops, 0);
    }

    #[test]
    fn recompute_run_emits_replay_spans() {
        use pipemare_telemetry::TraceRecorder;
        let recorder = TraceRecorder::new();
        run_pipeline(
            &PipelinePlan::for_recompute(RecomputePolicy::Segmented { segment: 2 }, 4, 2, 4),
            &mut [Sleep(Duration::from_micros(20)); 4],
            &recorder,
            &ActivationLedger::new(4, 1),
        );
        let events = recorder.events();
        let replays = events.iter().filter(|e| e.kind == SpanKind::Recompute).count();
        assert_eq!(replays, 2 * 8, "one replay span per microbatch on stages 0 and 1");
        assert!(events.iter().all(|e| e.kind != SpanKind::Recompute || e.stage < 2));
    }

    #[test]
    fn traced_run_stamps_microbatch_trace_ids() {
        use pipemare_telemetry::TraceRecorder;
        let recorder = TraceRecorder::new();
        run_pipeline(
            &PipelinePlan::for_method(Method::PipeMare, 3, 2, 2),
            &mut [Sleep(Duration::from_micros(20)); 3],
            &recorder,
            &ActivationLedger::new(3, 1),
        );
        let events = recorder.events();
        for e in events.iter().filter(|e| matches!(e.kind, SpanKind::Forward | SpanKind::Backward))
        {
            assert_eq!(e.trace, e.microbatch as u64 + 1, "{e:?}");
        }
        // Microbatch 0 (trace 1) crosses every stage twice: 3 forwards
        // then 3 backwards, reconstructable as one causal chain.
        let path = pipemare_telemetry::analyze::trace_path(&events, 1);
        assert_eq!(path.len(), 6, "{path:?}");
        assert!(path.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn recompute_single_stage_degenerate_case() {
        let r = run_policy(
            RecomputePolicy::Segmented { segment: 1 },
            1,
            2,
            2,
            Duration::from_micros(20),
        );
        assert_eq!(r.microbatches, 4);
        assert_eq!(r.peak_activations, vec![1]);
        assert_eq!(r.recompute_ops, 0);
    }
}
