//! The schedule as data: one op timeline per stage.
//!
//! GPipe, PipeDream, PipeMare and PipeMare Recompute are the same
//! pipeline under different *schedules* — which forward, backward or
//! replay each stage runs next (Figure 1, §2.2). A [`PipelinePlan`] is
//! that choice written down: for every stage the list of [`StageOp`]s
//! it executes, in order. Whoever runs a stage — a thread of
//! [`crate::executor::run_pipeline`] or a token worker of the comms
//! crate on the far side of a socket — walks its list, blocks on the
//! token the next op [`PipelinePlan::needs`], and announces the op on
//! the link it [`PipelinePlan::feeds`]. Every dependency of an op sits in
//! an earlier slot of one global schedule, so walking the lists cannot
//! deadlock however the stages are interleaved.
//!
//! Every op also names the weight version it reads ([`StageOp::reads`]).
//! A stage reproduces it by applying finished updates lazily, and a
//! PipeDream backward rereads its forward's stash ([`crate::delay`]).

use crate::delay::{Method, PipelineClock};
use crate::recompute::{
    is_segment_boundary, stage_timelines, RecomputePolicy, StageOp, StageOpKind,
};
use crate::schedule::{Schedule, SlotOp};

/// The three token streams between neighbouring stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// Activations, down the chain (stage 0's come from the driver).
    Fwd,
    /// Activation gradients, up the chain (stage 0's go to the driver).
    Bkwd,
    /// The replay wave of a recompute segment, down the chain.
    Replay,
}

impl Link {
    /// Every link, in discriminant order (`link as usize` indexes it).
    pub const ALL: [Link; 3] = [Link::Fwd, Link::Bkwd, Link::Replay];

    /// The stage a token sent on this link from `stage` arrives at, or
    /// `None` off either end of a `stages`-deep chain (a backward
    /// leaving stage 0 completes its microbatch at the driver).
    pub fn target(self, stage: usize, stages: usize) -> Option<usize> {
        match self {
            Link::Bkwd => stage.checked_sub(1),
            Link::Fwd | Link::Replay => (stage + 1 < stages).then_some(stage + 1),
        }
    }
}

/// The complete description of a pipeline run: per-stage op timelines
/// plus what the driver has to know to inject microbatches.
#[derive(Clone, Debug)]
pub struct PipelinePlan {
    timelines: Vec<Vec<StageOp>>,
    /// Recompute segment size; `stages` when nothing is replayed.
    segment: usize,
    total: usize,
    /// GPipe: the driver waits for each minibatch of this many
    /// microbatches to drain (the flush) before injecting the next.
    flush_every: Option<usize>,
}

impl PipelinePlan {
    /// The plan of `minibatches` minibatches of `n_micro` microbatches
    /// under `method`: the rows of [`Schedule::simulate`] with the idle
    /// cells dropped, so GPipe's flush, 1F1B's backward priority and the
    /// `2(P−s)−1` warm-up forwards of stage `s` come from the slot
    /// simulator that draws Figure 1 and counts Table 1's bubbles. Every
    /// forward stashes its activation; there are no replays.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn for_method(method: Method, stages: usize, n_micro: usize, minibatches: usize) -> Self {
        let grid = Schedule::simulate(method, stages, n_micro, minibatches).grid;
        let clock = PipelineClock::new(stages, n_micro);
        let timelines = grid
            .iter()
            .enumerate()
            .map(|(s, row)| {
                row.iter()
                    .enumerate()
                    .filter_map(|(slot, cell)| {
                        let (kind, micro) = match *cell {
                            SlotOp::Idle => return None,
                            SlotOp::Fwd(m) => (StageOpKind::Fwd, m),
                            SlotOp::Bkwd(m) => (StageOpKind::Bkwd, m),
                        };
                        let acquires = kind == StageOpKind::Fwd;
                        let reads = clock.reads(method, kind, micro, s, None);
                        Some(StageOp { slot, kind, micro, acquires, reads })
                    })
                    .collect()
            })
            .collect();
        PipelinePlan {
            timelines,
            segment: stages,
            total: n_micro * minibatches,
            flush_every: (method == Method::GPipe).then_some(n_micro),
        }
    }

    /// The plan of the same run under an activation [`RecomputePolicy`]
    /// with continuous (PipeMare) injection: [`stage_timelines`]'
    /// closed-form 1F1B order plus, for segmented policies, the replay
    /// sweep that recovers discarded activations just before each
    /// backward.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if a segmented policy's size
    /// is outside `1..=stages`.
    pub fn for_recompute(
        policy: RecomputePolicy,
        stages: usize,
        n_micro: usize,
        minibatches: usize,
    ) -> Self {
        assert!(minibatches > 0);
        let total = n_micro * minibatches;
        PipelinePlan {
            timelines: stage_timelines(policy, &PipelineClock::new(stages, n_micro), total),
            segment: policy.segment_size(stages),
            total,
            flush_every: None,
        }
    }

    /// Pipeline depth `P`.
    pub fn stages(&self) -> usize {
        self.timelines.len()
    }

    /// Microbatches in the whole run.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `Some(N)` when the driver drains the pipeline after every
    /// minibatch of `N` microbatches (GPipe's flush); `None` when it
    /// injects continuously.
    pub fn flush_every(&self) -> Option<usize> {
        self.flush_every
    }

    /// The ops stage `stage` executes, in order.
    pub fn timeline(&self, stage: usize) -> &[StageOp] {
        &self.timelines[stage]
    }

    /// Replay forward passes across all stages.
    pub fn recompute_ops(&self) -> usize {
        self.timelines.iter().flatten().filter(|op| op.kind == StageOpKind::Recomp).count()
    }

    /// The link whose next token (always microbatch `op.micro`) `stage`
    /// must receive before it can run `op`; `None` when the stage already
    /// holds the input — the last stage turns its own forward around, and
    /// a segment boundary starts the replay wave from its stash.
    pub fn needs(&self, stage: usize, op: &StageOp) -> Option<Link> {
        match op.kind {
            StageOpKind::Fwd => Some(Link::Fwd),
            StageOpKind::Bkwd => (stage + 1 < self.stages()).then_some(Link::Bkwd),
            StageOpKind::Recomp => {
                (!is_segment_boundary(self.segment, stage)).then_some(Link::Replay)
            }
        }
    }

    /// The link on which `stage` announces `op` once it has run, towards
    /// [`Link::target`]; `None` when nobody waits for it — the last
    /// stage's forward, and a replay that ends its segment.
    pub fn feeds(&self, stage: usize, op: &StageOp) -> Option<Link> {
        let next = stage + 1;
        match op.kind {
            StageOpKind::Fwd => (next < self.stages()).then_some(Link::Fwd),
            StageOpKind::Bkwd => Some(Link::Bkwd),
            StageOpKind::Recomp => (next < self.stages()
                && !is_segment_boundary(self.segment, next))
            .then_some(Link::Replay),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_plan_finishes_a_minibatch_before_the_next_begins() {
        let (stages, n_micro) = (4, 3);
        let plan = PipelinePlan::for_method(Method::GPipe, stages, n_micro, 3);
        assert_eq!(plan.flush_every(), Some(n_micro));
        for s in 0..stages {
            for chunk in plan.timeline(s).chunks(2 * n_micro) {
                let minibatch = chunk[0].micro / n_micro;
                assert!(chunk.iter().all(|op| op.micro / n_micro == minibatch), "stage {s}");
            }
        }
    }

    #[test]
    fn slot_makespans_reproduce_the_bubble() {
        // Table 1's throughput ratio read from the plans' slots, not a
        // clock: GPipe fills and drains every minibatch, PipeMare once.
        let makespan = |plan: PipelinePlan| {
            (0..plan.stages()).map(|s| plan.timeline(s).last().unwrap().slot + 1).max().unwrap()
        };
        let p = 4;
        let mut ratios = Vec::new();
        for n in [2, 8] {
            let mut ratio = 0.0;
            for m in [8, 20, 64] {
                let gpipe = makespan(PipelinePlan::for_method(Method::GPipe, p, n, m));
                let mare = makespan(PipelinePlan::for_method(Method::PipeMare, p, n, m));
                assert_eq!(gpipe, 2 * m * (n + p - 1), "GPipe N={n} M={m}");
                assert_eq!(mare, 2 * m * n + 2 * (p - 1), "PipeMare N={n} M={m}");
                ratio = mare as f64 / gpipe as f64;
            }
            let predicted = crate::cost::gpipe_bubble_throughput(p, n);
            assert!((ratio / predicted - 1.0).abs() < 0.03, "N={n}: {ratio} vs {predicted}");
            ratios.push(ratio);
        }
        assert!(ratios[1] > ratios[0], "the bubble shrinks as N grows: {ratios:?}");
    }

    #[test]
    fn links_route_along_the_chain() {
        assert_eq!(Link::Fwd.target(0, 3), Some(1));
        assert_eq!(Link::Fwd.target(2, 3), None);
        assert_eq!(Link::Bkwd.target(2, 3), Some(1));
        assert_eq!(Link::Bkwd.target(0, 3), None);
        // P = 4, S = 2: stage 0 opens the only replay segment, so its
        // replay needs no token and feeds stage 1, whose replay ends it.
        let plan = PipelinePlan::for_recompute(RecomputePolicy::Segmented { segment: 2 }, 4, 2, 2);
        let replay = |s: usize| {
            *plan.timeline(s).iter().find(|op| op.kind == StageOpKind::Recomp).expect("replays")
        };
        assert_eq!(plan.needs(0, &replay(0)), None);
        assert_eq!(plan.feeds(0, &replay(0)), Some(Link::Replay));
        assert_eq!(plan.needs(1, &replay(1)), Some(Link::Replay));
        assert_eq!(plan.feeds(1, &replay(1)), None);
        assert_eq!(plan.recompute_ops(), 2 * 4);
    }
}
