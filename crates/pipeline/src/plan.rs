//! The schedule as data: one op timeline per stage.
//!
//! GPipe, PipeDream, PipeMare and PipeMare Recompute are the same
//! pipeline under different *schedules* — which forward, backward or
//! replay each stage runs next (Figure 1, §2.2). A [`PipelinePlan`] is
//! that choice written down: for every stage the list of [`StageOp`]s
//! it executes, in order. Every plan is built by one closed form, the
//! paper's microbatch clock, and numbers its ops in unit-time slots —
//! the grid Figure 1 draws ([`PipelinePlan::render`]) and whose idle
//! cells are Table 1's bubbles. Whoever runs a stage — a thread of
//! [`crate::executor::run_pipeline`] or a token worker of the comms
//! crate on the far side of a socket — walks its list, blocks on the
//! token the next op [`PipelinePlan::needs`], and announces the op on
//! the link it [`PipelinePlan::feeds`]. Every dependency of an op sits in
//! an earlier slot, so walking the lists cannot deadlock however the
//! stages are interleaved.
//!
//! Every op also names the weight version it reads ([`StageOp::reads`]).
//! A stage reproduces it by applying finished updates lazily, and a
//! PipeDream backward rereads its forward's stash ([`crate::delay`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pipemare_theory::recomp_delay_slots;

use crate::delay::{Method, PipelineClock};
use crate::recompute::{is_segment_boundary, stage_replays, RecomputePolicy, StageOp, StageOpKind};

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

/// Where the paper's microbatch clock puts microbatch `m`'s `kind` op at
/// stage `s` of a `p`-stage pipeline with recompute segments of `seg`
/// stages: the forward at `m + s`, the backward at `m + 2P − s − 1`, and
/// the replay of segment `B`'s stage `B + j` at `m + 2P − B − 2S − 1 + j`,
/// a wave that re-runs the segment's forwards just before the backward
/// wave reaches them.
fn clock_slot(kind: StageOpKind, m: usize, s: usize, p: usize, seg: usize) -> usize {
    let b = s / seg * seg;
    match kind {
        StageOpKind::Fwd => m + s,
        StageOpKind::Bkwd => m + 2 * p - s - 1,
        StageOpKind::Recomp => m + 2 * p - b - 2 * seg - 1 + (s - b),
    }
}

/// Within one clock slot a stage runs `Bkwd` → `Recomp` → `Fwd`: the
/// release-before-acquire order of 1F1B, which makes the steady-state
/// live activation count equal the analytical window.
fn kind_priority(kind: StageOpKind) -> usize {
    match kind {
        StageOpKind::Bkwd => 0,
        StageOpKind::Recomp => 1,
        StageOpKind::Fwd => 2,
    }
}

/// The one plan constructor. Each stage's row is its ops sorted by the
/// microbatch clock ([`clock_slot`], ties `Bkwd < Recomp < Fwd`):
/// PipeDream and PipeMare walk it over all `mN` microbatches, GPipe over
/// one minibatch at a time (its flush). A stage stashes its activation at
/// the forward unless a replay will recover it, and every op reads the
/// version `method`'s clock gives it. The slots are then renumbered in
/// unit time.
fn build(
    method: Method,
    policy: RecomputePolicy,
    stages: usize,
    n_micro: usize,
    minibatches: usize,
) -> PipelinePlan {
    assert!(stages > 0 && n_micro > 0 && minibatches > 0, "every dimension must be positive");
    let (p, seg, total) = (stages, policy.segment_size(stages), n_micro * minibatches);
    let clock = PipelineClock::new(p, n_micro);
    // One minibatch spans clock slots 0..N+2P−1, so GPipe's minibatch k
    // starts k such spans in: after minibatch k − 1 has left every stage.
    let span = n_micro + 2 * p - 1;
    let key = |kind, m: usize, s| match method {
        Method::GPipe => m / n_micro * span + clock_slot(kind, m % n_micro, s, p, seg),
        Method::PipeDream | Method::PipeMare => clock_slot(kind, m, s, p, seg),
    };
    let timelines = (0..p)
        .map(|s| {
            // A width-1 segment is all boundary and has nothing to replay.
            let replays = stage_replays(p, seg, s) && seg >= 2;
            let stash_at_fwd = is_segment_boundary(seg, s) || !stage_replays(p, seg, s);
            let mut row = Vec::with_capacity(if replays { 3 } else { 2 } * total);
            for m in 0..total {
                let op = |kind, acquires| {
                    let reads = clock.reads(method, kind, m, s, Some(recomp_delay_slots(seg, s)));
                    StageOp { slot: key(kind, m, s), kind, micro: m, acquires, reads }
                };
                row.push(op(StageOpKind::Fwd, stash_at_fwd));
                row.push(op(StageOpKind::Bkwd, false));
                if replays {
                    // The boundary replays out of its stash; the others
                    // recover (acquire) their activation here.
                    row.push(op(StageOpKind::Recomp, !is_segment_boundary(seg, s)));
                }
            }
            row.sort_unstable_by_key(|op| (op.slot, kind_priority(op.kind)));
            row
        })
        .collect();
    let mut plan = PipelinePlan {
        timelines,
        segment: seg,
        total,
        flush_every: (method == Method::GPipe).then_some(n_micro),
    };
    plan.number_unit_slots();
    plan
}

impl PipelinePlan {
    /// The plan of `minibatches` minibatches of `n_micro` microbatches
    /// under `method`, every forward stashing its activation: 1F1B's
    /// backward priority and stage `s`'s `2(P−s)−1` warm-up forwards,
    /// and for GPipe a flush after every minibatch.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn for_method(method: Method, stages: usize, n_micro: usize, minibatches: usize) -> Self {
        build(method, RecomputePolicy::StashAll, stages, n_micro, minibatches)
    }

    /// The plan of the same run under an activation [`RecomputePolicy`]
    /// with continuous (PipeMare) injection: the 1F1B order plus, for
    /// segmented policies, the replay sweep that recovers discarded
    /// activations just before each backward.
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
        build(Method::PipeMare, policy, stages, n_micro, minibatches)
    }

    /// Replaces each op's clock slot by its unit-time slot: one after the
    /// later of its row predecessor's and its token producer's, which is
    /// when [`crate::executor::run_pipeline`] would run it if every op
    /// took one slot. Ops are visited in clock order across all stages —
    /// every producer sits one clock slot before its consumer — and each
    /// token carries its producer's slot down the link it travels.
    fn number_unit_slots(&mut self) {
        let stages = self.stages();
        let key = |op: &StageOp| (op.slot, kind_priority(op.kind));
        let mut next: BinaryHeap<_> = (self.timelines.iter().enumerate())
            .filter_map(|(s, row)| row.first().map(|op| Reverse((key(op), s, 0))))
            .collect();
        let mut free = vec![0; stages];
        let mut tokens: Vec<[VecDeque<(usize, usize)>; Link::ALL.len()]> =
            vec![Default::default(); stages];
        while let Some(Reverse((_, s, i))) = next.pop() {
            let op = self.timelines[s][i];
            let mut slot = free[s];
            // Stage 0's forwards take the driver's tokens, which wait for nothing.
            let injected = s == 0 && op.kind == StageOpKind::Fwd;
            if let Some(link) = self.needs(s, &op).filter(|_| !injected) {
                let (micro, sent) = tokens[s][link as usize].pop_front().expect("token sent");
                assert_eq!(micro, op.micro, "stage {s}: {link:?} token out of order");
                slot = slot.max(sent + 1);
            }
            self.timelines[s][i].slot = slot;
            free[s] = slot + 1;
            if let Some(link) = self.feeds(s, &op) {
                if let Some(to) = link.target(s, stages) {
                    tokens[to][link as usize].push_back((op.micro, slot));
                }
            }
            next.extend(self.timelines[s].get(i + 1).map(|op| Reverse((key(op), s, i + 1))));
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

    /// Unit slots from the first op to the last: the makespan.
    pub fn slots(&self) -> usize {
        self.timelines.iter().filter_map(|row| row.last()).map(|op| op.slot + 1).max().unwrap_or(0)
    }

    /// Idle stage-slots (the bubbles of Figure 1).
    pub fn bubbles(&self) -> usize {
        self.stages() * self.slots() - self.timelines.iter().map(Vec::len).sum::<usize>()
    }

    /// Utilization: busy stage-slots over all stage-slots.
    pub fn utilization(&self) -> f64 {
        1.0 - self.bubbles() as f64 / (self.stages() * self.slots()) as f64
    }

    /// Renders the unit-slot grid as ASCII rows (one per stage): `F0`,
    /// `R0` and `B0` cells, ` . ` for idle — the textual Figure 1.
    pub fn render(&self) -> Vec<String> {
        let slots = self.slots();
        self.timelines
            .iter()
            .enumerate()
            .map(|(s, row)| {
                let mut cells = vec![" . ".to_string(); slots];
                for op in row {
                    let tag = match op.kind {
                        StageOpKind::Fwd => 'F',
                        StageOpKind::Recomp => 'R',
                        StageOpKind::Bkwd => 'B',
                    };
                    cells[op.slot] = format!("{tag}{:<2}", op.micro);
                }
                format!("stage {s}: {}", cells.join(""))
            })
            .collect()
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
    /// The unit slot of microbatch `m`'s `kind` op at `stage`.
    fn slot_of(plan: &PipelinePlan, stage: usize, kind: StageOpKind, m: usize) -> Option<usize> {
        plan.timeline(stage).iter().find(|op| op.kind == kind && op.micro == m).map(|op| op.slot)
    }

    fn check_causality(plan: &PipelinePlan) {
        let (stages, total) = (plan.stages(), plan.total());
        let fwd = |s, m| slot_of(plan, s, StageOpKind::Fwd, m).unwrap();
        let bkwd = |s, m| slot_of(plan, s, StageOpKind::Bkwd, m).unwrap();
        for m in 0..total {
            // Forward flows down the chain in order.
            for s in 1..stages {
                assert!(fwd(s, m) > fwd(s - 1, m), "F{m} at stage {s} not after stage {}", s - 1);
            }
            // Backward starts at the last stage after its forward, and
            // flows back up.
            assert!(bkwd(stages - 1, m) > fwd(stages - 1, m));
            for s in (0..stages - 1).rev() {
                assert!(bkwd(s, m) > bkwd(s + 1, m), "B{m} at stage {s} not after stage {}", s + 1);
            }
        }
    }

    #[test]
    fn all_methods_complete_with_causal_order() {
        for method in Method::ALL {
            let (p, n, mb) = (4usize, 2usize, 3usize);
            check_causality(&PipelinePlan::for_method(method, p, n, mb));
        }
    }

    #[test]
    fn gpipe_flushes_between_minibatches() {
        let (p, n, mb) = (4usize, 2usize, 3usize);
        let plan = PipelinePlan::for_method(Method::GPipe, p, n, mb);
        // The first forward of minibatch 1 (microbatch index n) must come
        // after the last backward of minibatch 0 at stage 0.
        let last_b0 = (0..n).map(|m| slot_of(&plan, 0, StageOpKind::Bkwd, m).unwrap()).max();
        let first_f1 = slot_of(&plan, 0, StageOpKind::Fwd, n).unwrap();
        assert!(first_f1 > last_b0.unwrap(), "GPipe injected before the flush completed");
    }

    #[test]
    fn async_methods_overlap_minibatches() {
        let (p, n, mb) = (4usize, 2usize, 3usize);
        let plan = PipelinePlan::for_method(Method::PipeMare, p, n, mb);
        // PipeMare admits minibatch 1's forward before minibatch 0 fully
        // drains.
        let last_b0 = (0..n).map(|m| slot_of(&plan, 0, StageOpKind::Bkwd, m).unwrap()).max();
        let first_f1 = slot_of(&plan, 0, StageOpKind::Fwd, n).unwrap();
        assert!(first_f1 < last_b0.unwrap(), "PipeMare should overlap minibatches");
    }

    #[test]
    fn gpipe_has_more_bubbles_and_lower_utilization() {
        let (p, n, mb) = (4usize, 2usize, 6usize);
        let gpipe = PipelinePlan::for_method(Method::GPipe, p, n, mb);
        let pm = PipelinePlan::for_method(Method::PipeMare, p, n, mb);
        assert!(gpipe.slots() > pm.slots(), "GPipe should take more slots");
        assert!(
            gpipe.utilization() < pm.utilization(),
            "GPipe {:.2} should be below PipeMare {:.2}",
            gpipe.utilization(),
            pm.utilization()
        );
    }

    #[test]
    fn busy_cell_count_is_exact() {
        // Every microbatch contributes exactly one F and one B per stage,
        // each in a cell of its own.
        for method in Method::ALL {
            let (p, n, mb) = (3usize, 2usize, 2usize);
            let plan = PipelinePlan::for_method(method, p, n, mb);
            let busy: usize = plan
                .render()
                .iter()
                .map(|row| row.split_once(": ").unwrap().1.as_bytes().chunks(3))
                .map(|cells| cells.filter(|&cell| cell != b" . ").count())
                .sum();
            assert_eq!(busy, 2 * p * n * mb);
            assert_eq!(plan.bubbles(), p * plan.slots() - busy);
        }
    }

    #[test]
    fn render_shapes() {
        let plan = PipelinePlan::for_method(Method::GPipe, 2, 1, 1);
        let rows = plan.render();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("stage 0:"));
        assert!(rows[0].contains("F0"));
        assert!(rows[0].contains("B0"));
        let plan = PipelinePlan::for_recompute(RecomputePolicy::Segmented { segment: 2 }, 4, 1, 1);
        assert!(plan.render()[1].contains("R0"));
    }

    #[test]
    fn timelines_are_slot_sorted_and_causal() {
        // Unit slots: a stage runs one op per slot, and every op runs
        // strictly after the op whose token it takes.
        let plan = PipelinePlan::for_recompute(RecomputePolicy::Segmented { segment: 3 }, 9, 2, 10);
        for s in 0..plan.stages() {
            let ops = plan.timeline(s);
            for w in ops.windows(2) {
                assert!(w[0].slot < w[1].slot, "stage {s}: {:?} and {:?} share a slot", w[0], w[1]);
            }
            for op in ops {
                let Some(link) = plan.needs(s, op) else { continue };
                let (from, kind) = match link {
                    Link::Fwd => (s.checked_sub(1), StageOpKind::Fwd),
                    Link::Bkwd => (Some(s + 1), StageOpKind::Bkwd),
                    Link::Replay => (s.checked_sub(1), StageOpKind::Recomp),
                };
                let Some(from) = from else { continue };
                let sent = slot_of(&plan, from, kind, op.micro).unwrap();
                assert!(sent < op.slot, "stage {s}: {op:?} runs before its token is sent");
            }
            for m in 0..plan.total() {
                let f = slot_of(&plan, s, StageOpKind::Fwd, m).unwrap();
                let b = slot_of(&plan, s, StageOpKind::Bkwd, m).unwrap();
                assert!(f < b, "stage {s} micro {m}: backward before forward");
                if let Some(r) = slot_of(&plan, s, StageOpKind::Recomp, m) {
                    assert!(f < r && r < b, "stage {s} micro {m}: replay outside (fwd, bkwd)");
                }
            }
        }
    }

    #[test]
    fn replay_wave_moves_one_stage_per_slot() {
        // On the microbatch clock, the recompute of microbatch m visits a
        // replay segment's consecutive stages in consecutive slots (the
        // boundary first).
        let (p, seg) = (9, 3);
        let plan =
            PipelinePlan::for_recompute(RecomputePolicy::Segmented { segment: seg }, p, 2, 10);
        let unit = |s, m| slot_of(&plan, s, StageOpKind::Recomp, m).unwrap();
        let mut spread = 0;
        for b in (0..p).step_by(seg) {
            if !stage_replays(p, seg, b) {
                continue;
            }
            for s in b + 1..b + seg {
                for m in 0..plan.total() {
                    let here = clock_slot(StageOpKind::Recomp, m, s, p, seg);
                    assert_eq!(here, clock_slot(StageOpKind::Recomp, m, s - 1, p, seg) + 1);
                    // Unit slots keep the wave's order but not its spacing.
                    assert!(unit(s, m) > unit(s - 1, m));
                    spread += usize::from(unit(s, m) != unit(s - 1, m) + 1);
                }
            }
        }
        assert_eq!(spread, 68);
    }

    #[test]
    fn final_segment_never_replays() {
        for (p, seg) in [(4usize, 2usize), (9, 3), (16, 4), (10, 3), (7, 7)] {
            let policy = RecomputePolicy::Segmented { segment: seg };
            let plan = PipelinePlan::for_recompute(policy, p, 2, 4);
            for s in 0..p {
                let has_recomp = plan.timeline(s).iter().any(|op| op.kind == StageOpKind::Recomp);
                assert_eq!(
                    has_recomp,
                    stage_replays(p, seg, s) && seg >= 2,
                    "P={p} S={seg} stage {s}"
                );
            }
        }
    }
}
