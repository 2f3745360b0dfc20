//! A real multi-threaded pipeline used to validate the throughput model.
//!
//! A stage walks its row of an [`OpenPlan`] one op at a time
//! (`StageCursor::step`): microbatch tokens flow down the chain, turn
//! around at the last stage and flow back, each carrying its op's
//! payload. The schedule — GPipe draining the pipeline at every minibatch
//! boundary (the bubble), PipeDream/PipeMare keeping it full, PipeMare
//! Recompute replaying segments — is entirely in the plan, and what an op
//! does is the stage's [`StageWork`]. [`with_pipeline`] runs each stage
//! on its own thread ([`run_stage`]) across minibatch calls, and [`walk`]
//! runs them all on the calling thread. Two works exist: [`Sleep`], under
//! which measured wall-clock throughputs reproduce the `N/(N+P−1)` bubble
//! penalty of Table 1 and the [`ActivationLedger`] peaks the analytical
//! memory model, and the comms crate's `ChainStage`, a stage that owns
//! its layers and weights and trains them, bit for bit as the reference
//! trainer does, under either driver.
//!
//! A stage finishes after its last backward once the end of the stream
//! has reached it, so shutdown never depends on channel-disconnection
//! ordering (which is cyclic in a bidirectional pipeline).

use std::collections::VecDeque;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};
use pipemare_telemetry::{Recorder, SpanKind, NO_MICROBATCH};

use crate::plan::{Link, OpenPlan, PipelinePlan};
use crate::recompute::{ActivationLedger, StageOp, StageOpKind};

/// What a stage does for each op of its row; one value per stage:
/// [`Sleep`] for latency alone, or a stage that computes (the comms
/// crate's `ChainStage`, which runs its layer split on its own weights and
/// sends activations and their gradients as payloads).
pub trait StageWork: Send {
    /// What travels on a link between neighbouring stages.
    type Payload: Send;
    /// Runs `op`. `input` arrived on the link [`OpenPlan::needs`] names
    /// (`None` for an op that needs none and for a token the driver
    /// injected); the result leaves on [`OpenPlan::feeds`], and is
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

/// What arrives on a link.
#[derive(Debug)]
pub enum Token<P> {
    /// Microbatch `id`'s token and its payload (`None` from the driver).
    Micro(usize, Option<P>),
    /// The end of the stream, in place of the next forward's token.
    End,
}

/// How [`run_stage`] reaches a stage's neighbours: channels between
/// threads, or messages through a hub.
pub trait StageLinks<P> {
    /// Why a link failed; the stage stops with it.
    type Error;
    /// Blocks for the next token on `link`, which `op` consumes (a
    /// microbatch token is `op.micro`'s, or the link is out of order).
    fn recv(&mut self, link: Link, op: &StageOp) -> Result<Token<P>, Self::Error>;
    /// Sends `token` on `link` towards [`Link::target`].
    fn send(&mut self, link: Link, token: Token<P>) -> Result<(), Self::Error>;
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

/// One stage's place in its [`OpenPlan`] row and its end-of-stream
/// state; [`StageCursor::step`] is the one stage step, and [`run_stage`]
/// and [`walk`] are its only drivers.
pub(crate) struct StageCursor {
    plan: OpenPlan,
    stage: usize,
    row: Box<dyn Iterator<Item = StageOp>>,
    /// The op to run next; `None` once the stage has finished.
    next: Option<StageOp>,
    /// The microbatch the end of the stream replaced (`usize::MAX` until
    /// then), and the backwards run — a row runs them in order.
    end: usize,
    finished: usize,
    /// When the stage began to wait for its next token: a driver stamps
    /// it, `run_stage` just before it blocks on a link.
    idle_since: u64,
}

impl StageCursor {
    /// Stage `stage` of `plan` before its first op, idle from now.
    fn new<R: Recorder>(plan: &OpenPlan, stage: usize, recorder: &R) -> Self {
        let (mut row, idle_since) = (Box::new(plan.row(stage)), recorder.now_us());
        let next = row.next();
        StageCursor { plan: *plan, stage, row, next, end: usize::MAX, finished: 0, idle_since }
    }

    /// The next op and the link its token arrives on (`None` when the
    /// stage holds its input), or `None` once the stage has finished.
    fn needs(&self) -> Option<(StageOp, Option<Link>)> {
        self.next.map(|op| (op, self.plan.needs(self.stage, &op)))
    }

    /// Runs the next op on `token`, from the link [`StageCursor::needs`]
    /// names, and returns what to send on which link. The op acquires an
    /// activation buffer from `ledger` where it says so, runs `work`,
    /// releases the buffer after a backward and hands its result on the
    /// link it [`OpenPlan::feeds`]. On the stage's track it records a
    /// `QueueWaitFwd`/`QueueWaitBkwd` span from `idle_since`,
    /// then the `Forward`/`Recompute`/`Backward` span stamped with the
    /// microbatch's causal trace id (ids are 0-based; trace 0 means
    /// "absent"). The end of the stream is handed on; from then on the
    /// stage runs only its remaining ops of earlier microbatches. Panics
    /// once the stage has finished, or on a token the op does not take.
    fn step<W: StageWork, R: Recorder>(
        &mut self,
        token: Option<Token<W::Payload>>,
        work: &mut W,
        recorder: &R,
        ledger: &ActivationLedger,
    ) -> Option<(Link, Token<W::Payload>)> {
        let (op, link) = self.needs().expect("a finished stage runs no op");
        let (stage, track) = (self.stage, self.stage as u32);
        assert_eq!(token.is_some(), link.is_some(), "stage {stage}: {op:?} needs {link:?}");
        let input = match token {
            Some(Token::End) => {
                self.end = op.micro;
                self.advance();
                return self.plan.feeds(stage, &op).map(|link| (link, Token::End));
            }
            Some(Token::Micro(id, payload)) => {
                assert_eq!(id, op.micro, "stage {stage}: {link:?} token out of order");
                payload
            }
            None => None,
        };
        if op.acquires {
            ledger.acquire(stage);
        }
        let (span, wait_span) = match op.kind {
            StageOpKind::Fwd => (SpanKind::Forward, SpanKind::QueueWaitFwd),
            StageOpKind::Recomp => (SpanKind::Recompute, SpanKind::QueueWaitFwd),
            StageOpKind::Bkwd => (SpanKind::Backward, SpanKind::QueueWaitBkwd),
        };
        let t0 = recorder.now_us();
        if link.is_some() {
            recorder.record_span(wait_span, track, track, NO_MICROBATCH, self.idle_since, t0);
        }
        let out = work.run(&op, input);
        let (micro, trace) = (op.micro as u32, op.micro as u64 + 1);
        recorder.record_span_traced(span, track, track, micro, trace, t0, recorder.now_us());
        if op.kind == StageOpKind::Bkwd {
            ledger.release(stage);
            self.finished += 1;
        }
        self.advance();
        self.plan.feeds(stage, &op).map(|link| (link, Token::Micro(op.micro, Some(out))))
    }

    /// Moves to the next op the stream still reaches.
    fn advance(&mut self) {
        let live = self.finished < self.end;
        self.next = live.then(|| self.row.find(|op| op.micro < self.end)).flatten();
    }
}

/// Steps one `StageCursor` until the end of its stream, blocking on
/// its links: what [`with_pipeline`]'s threads and the comms crate's
/// token worker run.
pub fn run_stage<W: StageWork, R: Recorder, L: StageLinks<W::Payload>>(
    plan: &OpenPlan,
    stage: usize,
    work: &mut W,
    recorder: &R,
    ledger: &ActivationLedger,
    links: &mut L,
) -> Result<(), L::Error> {
    let mut cursor = StageCursor::new(plan, stage, recorder);
    while let Some((op, link)) = cursor.needs() {
        cursor.idle_since = recorder.now_us();
        let token = link.map(|link| links.recv(link, &op)).transpose()?;
        if let Some((link, token)) = cursor.step(token, work, recorder, ledger) {
            links.send(link, token)?;
        }
    }
    Ok(())
}

/// Why [`walk`] stopped early: each stage's next op (`None`: finished).
#[derive(Debug)]
pub struct Stall(pub Vec<Option<StageOp>>);

/// Steps every stage's `StageCursor` on the calling thread, over local
/// per-link queues, under [`with_pipeline`]'s driver: `calls` minibatches
/// injected as [`OpenPlan::inject_bound`] allows at `lag`, then the end of
/// the stream. Each pass steps every stage whose token is there, in stage
/// order, and a stage waits from when it last stepped; only the stages
/// record spans. At [`OpenPlan::lag`] it never stalls, and one less
/// stalls as soon as a call has to wait. Panics if `work` or the ledger
/// has another stage count.
pub fn walk<W: StageWork, R: Recorder>(
    open: &OpenPlan,
    lag: usize,
    calls: usize,
    work: &mut [W],
    recorder: &R,
    ledger: &ActivationLedger,
) -> Result<(), Stall> {
    let (stages, total) = (open.stages(), calls * open.n_micro());
    assert!(work.len() == stages && ledger.peaks().len() == stages, "sized for {stages} stages");
    let mut cursors: Vec<_> = (0..stages).map(|s| StageCursor::new(open, s, recorder)).collect();
    let mut queues: Vec<[VecDeque<_>; Link::ALL.len()]> =
        (0..stages).map(|_| Default::default()).collect();
    // The end of the stream takes the place of microbatch `total`.
    let driver = |id| if id < total { Token::Micro(id, None) } else { Token::End };
    let (mut injected, mut completed) = (0, 0);
    loop {
        let bound = open.inject_bound(completed, lag).min(total + 1);
        let mut progressed = injected < bound;
        queues[0][Link::Fwd as usize].extend((injected..bound).map(driver));
        injected = bound;
        for (s, (cursor, work)) in cursors.iter_mut().zip(work.iter_mut()).enumerate() {
            let Some((_, link)) = cursor.needs() else { continue };
            let token = link.map(|link| queues[s][link as usize].pop_front());
            if matches!(token, Some(None)) {
                continue;
            }
            progressed = true;
            let sent = cursor.step(token.flatten(), work, recorder, ledger);
            cursor.idle_since = recorder.now_us();
            if let Some((link, token)) = sent {
                match link.target(s, stages) {
                    Some(to) => queues[to][link as usize].push_back(token),
                    None => completed += 1, // a backward left stage 0
                }
            }
        }
        if !progressed {
            let next: Vec<_> = cursors.iter().map(|c| c.needs().map(|(op, _)| op)).collect();
            return if next.iter().all(Option::is_none) { Ok(()) } else { Err(Stall(next)) };
        }
    }
}

/// A stage thread's links: its own receivers and its neighbours' senders,
/// so a stage that dies disconnects its neighbours instead of leaving
/// them blocked.
struct Channels<P> {
    rx: [Receiver<Token<P>>; Link::ALL.len()],
    tx: [Option<Sender<Token<P>>>; Link::ALL.len()],
}

impl<P> StageLinks<P> for Channels<P> {
    type Error = Infallible;

    fn recv(&mut self, link: Link, _op: &StageOp) -> Result<Token<P>, Infallible> {
        Ok(self.rx[link as usize].recv().expect("neighbour stage alive"))
    }

    fn send(&mut self, link: Link, token: Token<P>) -> Result<(), Infallible> {
        let tx = self.tx[link as usize].as_ref().expect("fed link has a target");
        tx.send(token).expect("neighbour stage alive");
        Ok(())
    }
}

/// The driver's handle on the stages of [`with_pipeline`].
pub struct Pipe<'a, P, R> {
    inject: Sender<Token<P>>,
    done: Receiver<Token<P>>,
    recorder: &'a R,
    plan: &'a OpenPlan,
    injected: usize,
    completed: usize,
}

impl<P, R: Recorder> Pipe<'_, P, R> {
    /// Injects minibatch `j`'s `N` microbatches, each with an `Inject`
    /// instant on the driver's track, and returns once minibatch `j − d`'s
    /// last backward has left stage 0 (`d` the plan's [`OpenPlan::lag`]):
    /// the minibatch whose update has now landed ([`OpenPlan::inject_bound`]).
    /// When `d` is 0 (GPipe) that wait is the flush and is recorded as a
    /// `Flush` span; otherwise it never holds a stage back.
    pub fn minibatch(&mut self) {
        let (n_micro, lag) = (self.plan.n_micro(), self.plan.lag());
        for id in self.injected..self.injected + n_micro {
            self.inject.send(Token::Micro(id, None)).expect("pipeline alive");
            self.recorder.record_instant(SpanKind::Inject, self.plan.stages() as u32, 0, id as u32);
        }
        self.injected += n_micro;
        self.drain(lag == 0, |pipe| pipe.injected < pipe.plan.inject_bound(pipe.completed, lag));
    }

    /// Waits for completed microbatches until `done`; records the wait as
    /// a `Flush` span when it is one.
    fn drain(&mut self, flush: bool, done: impl Fn(&Self) -> bool) {
        let since = self.recorder.now_us();
        while !done(self) {
            self.done.recv().expect("pipeline alive");
            self.completed += 1;
        }
        if flush {
            let (track, now) = (self.plan.stages() as u32, self.recorder.now_us());
            self.recorder.record_span(SpanKind::Flush, track, 0, NO_MICROBATCH, since, now);
        }
    }
}

/// Runs `f` with a [`Pipe`] on one thread per stage of `plan`, stage `s`
/// doing `work[s]` ([`run_stage`]), and returns what `f` returns.
///
/// All channels are unbounded: the fixed op order is itself the throttle,
/// and every dependency points to an earlier clock slot, so the stages
/// cannot deadlock. The calling thread is the driver (track `stages`).
/// When `f` returns, it ends the stream and records a `Flush` span over
/// the final drain.
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
pub fn with_pipeline<W: StageWork, R: Recorder, T>(
    plan: &OpenPlan,
    work: &mut [W],
    recorder: &R,
    ledger: &ActivationLedger,
    f: impl FnOnce(&mut Pipe<'_, W::Payload, R>) -> T,
) -> T {
    let stages = plan.stages();
    assert_eq!(work.len(), stages, "one StageWork per stage");
    assert_eq!(ledger.peaks().len(), stages, "ledger sized for a different stage count");
    // chans[s][link]: the tokens arriving at stage s on each link.
    let chans: Vec<_> = (0..stages).map(|_| Link::ALL.map(|_| unbounded())).collect();
    let (done_tx, done) = unbounded();
    std::thread::scope(|scope| {
        for (s, work) in work.iter_mut().enumerate() {
            let mut links = Channels {
                rx: Link::ALL.map(|link| chans[s][link as usize].1.clone()),
                tx: Link::ALL.map(|link| match link.target(s, stages) {
                    Some(to) => Some(chans[to][link as usize].0.clone()),
                    None => (link == Link::Bkwd).then(|| done_tx.clone()),
                }),
            };
            // Stage workers are already one-thread-per-stage; nested
            // kernel parallelism would oversubscribe the host, so any
            // tensor kernels invoked from a stage run serially (the
            // pool-nesting rule).
            scope.spawn(move || {
                pipemare_tensor::pool::serial_scope(|| {
                    let Ok(()) = run_stage(plan, s, work, recorder, ledger, &mut links);
                })
            });
        }
        let inject = chans[0][Link::Fwd as usize].0.clone();
        drop((chans, done_tx));
        let mut pipe = Pipe { inject, done, recorder, plan, injected: 0, completed: 0 };
        let out = f(&mut pipe);
        pipe.inject.send(Token::End).expect("pipeline alive");
        pipe.drain(true, |pipe| pipe.completed == pipe.injected);
        out
    })
}

/// Runs `plan` as its `M` [`Pipe::minibatch`] calls ([`with_pipeline`])
/// and returns the measured throughput and activation peaks.
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
    let (open, total) = (plan.open(), plan.total());
    let start = Instant::now();
    with_pipeline(open, work, recorder, ledger, |pipe| {
        (0..total / open.n_micro()).for_each(|_| pipe.minibatch())
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
        let recorder = pipemare_telemetry::FlightRecorder::for_pipeline(4);
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
        let recorder = pipemare_telemetry::FlightRecorder::for_pipeline(3);
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
