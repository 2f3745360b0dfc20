//! Slot-level schedule simulation and ASCII pipeline diagrams (Figure 1).
//!
//! A discrete-event model of the pipeline: each stage executes at most
//! one operation (a forward or a backward of one microbatch) per slot;
//! forwards flow down the stage chain, backwards flow up, backwards take
//! priority (1F1B), and GPipe additionally drains the pipeline at every
//! minibatch boundary. The resulting slot grids are the paper's Figure 1
//! diagrams, and counting idle cells measures the bubble overhead
//! directly.

use std::collections::VecDeque;

use crate::delay::Method;
use crate::recompute::{stage_timelines, RecomputePolicy, StageOpKind};

/// One cell of the schedule grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    /// Stage idle this slot.
    Idle,
    /// Forward pass of the given global microbatch index.
    Fwd(usize),
    /// Backward pass of the given global microbatch index.
    Bkwd(usize),
    /// Replay (recompute) forward pass of the given global microbatch
    /// index — PipeMare Recompute recovering a discarded activation.
    Recomp(usize),
}

/// A simulated schedule: `grid[stage][slot]`.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Per-stage slot assignments.
    pub grid: Vec<Vec<SlotOp>>,
    /// Microbatches per minibatch used in the simulation.
    pub n_micro: usize,
}

impl Schedule {
    /// Simulates `minibatches` minibatches of `n_micro` microbatches on a
    /// `stages`-deep pipeline under `method`'s injection policy.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn simulate(method: Method, stages: usize, n_micro: usize, minibatches: usize) -> Self {
        assert!(stages > 0 && n_micro > 0 && minibatches > 0);
        let total = n_micro * minibatches;
        // fwd_ready[s]: microbatches waiting to run forward at stage s.
        // bkwd_ready[s]: microbatches waiting to run backward at stage s.
        let mut fwd_ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); stages];
        let mut bkwd_ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); stages];
        let mut injected = 0usize;
        let mut completed = 0usize;
        let mut grid: Vec<Vec<SlotOp>> = vec![Vec::new(); stages];
        // Bound the simulation defensively.
        let max_slots = 4 * (total + stages) * (stages + 1);
        for _slot in 0..max_slots {
            if completed == total {
                break;
            }
            // Injection policy: GPipe only admits minibatch m+1 once all
            // of minibatch m has completed its backward pass.
            let admitted_limit = match method {
                Method::GPipe => ((completed / n_micro) + 1) * n_micro,
                Method::PipeDream | Method::PipeMare => total,
            };
            while injected < total.min(admitted_limit) {
                fwd_ready[0].push_back(injected);
                injected += 1;
            }
            // Each stage performs one op this slot (backward priority).
            let mut fwd_passing: Vec<(usize, usize)> = Vec::new(); // (to_stage, micro)
            let mut bkwd_passing: Vec<(usize, usize)> = Vec::new();
            let mut done_this_slot = 0usize;
            for s in 0..stages {
                let op = if let Some(m) = bkwd_ready[s].pop_front() {
                    if s > 0 {
                        bkwd_passing.push((s - 1, m));
                    } else {
                        done_this_slot += 1;
                    }
                    SlotOp::Bkwd(m)
                } else if let Some(m) = fwd_ready[s].pop_front() {
                    if s + 1 < stages {
                        fwd_passing.push((s + 1, m));
                    } else {
                        // Last stage: backward becomes ready here next slot.
                        bkwd_passing.push((s, m));
                    }
                    SlotOp::Fwd(m)
                } else {
                    SlotOp::Idle
                };
                grid[s].push(op);
            }
            completed += done_this_slot;
            for (s, m) in fwd_passing {
                fwd_ready[s].push_back(m);
            }
            for (s, m) in bkwd_passing {
                bkwd_ready[s].push_back(m);
            }
            if completed == total {
                break;
            }
        }
        assert_eq!(completed, total, "schedule simulation did not drain");
        Schedule { grid, n_micro }
    }

    /// The idealized full-throughput PipeMare Recompute schedule (the
    /// Figure 6 picture): forwards of microbatch `m` at stage `s` in
    /// slot `m+s`, backwards in slot `m+2P−s−1`, and the segment replay
    /// waves of [`stage_timelines`] in between.
    ///
    /// Unlike [`Schedule::simulate`] this is built from closed forms,
    /// not discrete-event simulation, and the ideal schedule runs a
    /// forward and a backward of *different* microbatches in the same
    /// stage-slot (full throughput). A grid cell holds one op, so
    /// colliding ops are shown with backward > replay > forward priority
    /// — the diagram is for reading segment/replay structure, while the
    /// executor's ledger is the authority on memory accounting.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `segment` is outside
    /// `1..=stages`.
    pub fn simulate_recompute(
        stages: usize,
        segment: usize,
        n_micro: usize,
        minibatches: usize,
    ) -> Self {
        assert!(n_micro > 0 && minibatches > 0);
        let total = n_micro * minibatches;
        let timelines = stage_timelines(RecomputePolicy::Segmented { segment }, stages, total);
        let slots =
            timelines.iter().flat_map(|ops| ops.iter().map(|op| op.slot + 1)).max().unwrap_or(0);
        let mut grid: Vec<Vec<SlotOp>> = vec![vec![SlotOp::Idle; slots]; stages];
        for (s, ops) in timelines.iter().enumerate() {
            // Ops per stage are sorted Bkwd < Recomp < Fwd within a slot;
            // iterating in reverse writes the highest-priority op last.
            for op in ops.iter().rev() {
                grid[s][op.slot] = match op.kind {
                    StageOpKind::Fwd => SlotOp::Fwd(op.micro),
                    StageOpKind::Bkwd => SlotOp::Bkwd(op.micro),
                    StageOpKind::Recomp => SlotOp::Recomp(op.micro),
                };
            }
        }
        Schedule { grid, n_micro }
    }

    /// Number of slots the schedule took.
    pub fn slots(&self) -> usize {
        self.grid.first().map(|r| r.len()).unwrap_or(0)
    }

    /// Total idle cells (the bubbles of Figure 1).
    pub fn bubbles(&self) -> usize {
        self.grid.iter().flat_map(|row| row.iter()).filter(|&&op| op == SlotOp::Idle).count()
    }

    /// Utilization: busy cells over all cells.
    pub fn utilization(&self) -> f64 {
        let cells = self.grid.len() * self.slots();
        if cells == 0 {
            return 0.0;
        }
        1.0 - self.bubbles() as f64 / cells as f64
    }

    /// Slot at which `op` ran on `stage`, if it did.
    pub fn find(&self, stage: usize, op: SlotOp) -> Option<usize> {
        self.grid[stage].iter().position(|&o| o == op)
    }

    /// Renders the grid as ASCII rows (one per stage): `F0 B0` cells,
    /// `..` for idle — the textual Figure 1.
    pub fn render(&self) -> Vec<String> {
        self.grid
            .iter()
            .enumerate()
            .map(|(s, row)| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|op| match op {
                        SlotOp::Idle => " . ".to_string(),
                        SlotOp::Fwd(m) => format!("F{m:<2}"),
                        SlotOp::Bkwd(m) => format!("B{m:<2}"),
                        SlotOp::Recomp(m) => format!("R{m:<2}"),
                    })
                    .collect();
                format!("stage {s}: {}", cells.join(""))
            })
            .collect()
    }
}

/// Incremental timing model of a forward-only (inference) pipeline: a
/// tandem of stages each holding at most one batch, no backward
/// traffic. Batches are admitted in order; batch `k` enters stage `s`
/// once it has left stage `s − 1` *and* stage `s` has finished batch
/// `k − 1` — the classic tandem-queue recurrence, in integer
/// microseconds so results are exactly reproducible. The serving
/// simulator drives this to model coalesced batches flowing
/// through the stage chain; steady-state throughput is set by the
/// slowest stage while latency is the sum over stages.
#[derive(Clone, Debug)]
pub struct ForwardPipeline {
    /// Time each stage becomes free (departure of its last batch).
    stage_free_us: Vec<u64>,
}

impl ForwardPipeline {
    /// An idle pipeline of `stages` stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(stages: usize) -> Self {
        assert!(stages > 0, "need at least one stage");
        ForwardPipeline { stage_free_us: vec![0; stages] }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stage_free_us.len()
    }

    /// Earliest time the next batch can enter stage 0. An admission
    /// controller that waits for this before dispatching models a
    /// bounded-in-flight submitter (backpressure from stage 0).
    pub fn next_admit_us(&self) -> u64 {
        self.stage_free_us[0]
    }

    /// Admits one batch at `admit_us` (clamped up to
    /// [`ForwardPipeline::next_admit_us`]) with the given per-stage
    /// service times; returns its completion time at the last stage.
    ///
    /// # Panics
    ///
    /// Panics if `service_us` does not have one entry per stage.
    pub fn admit(&mut self, admit_us: u64, service_us: &[u64]) -> u64 {
        assert_eq!(service_us.len(), self.stage_free_us.len(), "one service time per stage");
        let mut t = admit_us;
        for (free, &svc) in self.stage_free_us.iter_mut().zip(service_us) {
            t = t.max(*free) + svc;
            *free = t;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_pipeline_latency_is_sum_throughput_is_bottleneck() {
        // Idle pipeline: one batch's latency is the sum of services.
        let mut p = ForwardPipeline::new(3);
        assert_eq!(p.admit(10, &[5, 7, 3]), 10 + 15);
        // Saturated: departures are spaced by the bottleneck stage.
        let mut p = ForwardPipeline::new(3);
        let svc = [5u64, 9, 3];
        let done: Vec<u64> = (0..10).map(|_| p.admit(0, &svc)).collect();
        for w in done.windows(2).skip(2) {
            assert_eq!(w[1] - w[0], 9, "steady-state spacing must be the bottleneck service");
        }
        // Admission backpressure: stage 0 frees up every 5 µs.
        assert_eq!(p.next_admit_us(), 10 * 5);
    }

    #[test]
    fn forward_pipeline_respects_admit_time() {
        let mut p = ForwardPipeline::new(2);
        assert_eq!(p.admit(0, &[4, 4]), 8);
        // A late batch enters an idle pipeline: full latency from admit.
        assert_eq!(p.admit(100, &[4, 4]), 108);
    }

    fn check_causality(sched: &Schedule, stages: usize, total: usize) {
        for m in 0..total {
            // Forward flows down the chain in order.
            for s in 1..stages {
                let up = sched.find(s - 1, SlotOp::Fwd(m)).unwrap();
                let here = sched.find(s, SlotOp::Fwd(m)).unwrap();
                assert!(here > up, "F{m} at stage {s} not after stage {}", s - 1);
            }
            // Backward starts at the last stage after its forward, and
            // flows back up.
            let f_last = sched.find(stages - 1, SlotOp::Fwd(m)).unwrap();
            let b_last = sched.find(stages - 1, SlotOp::Bkwd(m)).unwrap();
            assert!(b_last > f_last);
            for s in (0..stages - 1).rev() {
                let below = sched.find(s + 1, SlotOp::Bkwd(m)).unwrap();
                let here = sched.find(s, SlotOp::Bkwd(m)).unwrap();
                assert!(here > below, "B{m} at stage {s} not after stage {}", s + 1);
            }
        }
    }

    #[test]
    fn all_methods_complete_with_causal_order() {
        for method in Method::ALL {
            let (p, n, mb) = (4usize, 2usize, 3usize);
            let sched = Schedule::simulate(method, p, n, mb);
            check_causality(&sched, p, n * mb);
        }
    }

    #[test]
    fn gpipe_flushes_between_minibatches() {
        let (p, n, mb) = (4usize, 2usize, 3usize);
        let sched = Schedule::simulate(Method::GPipe, p, n, mb);
        // The first forward of minibatch 1 (microbatch index n) must come
        // after the last backward of minibatch 0 at stage 0.
        let last_b0 = (0..n).map(|m| sched.find(0, SlotOp::Bkwd(m)).unwrap()).max().unwrap();
        let first_f1 = sched.find(0, SlotOp::Fwd(n)).unwrap();
        assert!(first_f1 > last_b0, "GPipe injected before the flush completed");
    }

    #[test]
    fn async_methods_overlap_minibatches() {
        let (p, n, mb) = (4usize, 2usize, 3usize);
        let sched = Schedule::simulate(Method::PipeMare, p, n, mb);
        // PipeMare admits minibatch 1's forward before minibatch 0 fully
        // drains.
        let last_b0 = (0..n).map(|m| sched.find(0, SlotOp::Bkwd(m)).unwrap()).max().unwrap();
        let first_f1 = sched.find(0, SlotOp::Fwd(n)).unwrap();
        assert!(first_f1 < last_b0, "PipeMare should overlap minibatches");
    }

    #[test]
    fn gpipe_has_more_bubbles_and_lower_utilization() {
        let (p, n, mb) = (4usize, 2usize, 6usize);
        let gpipe = Schedule::simulate(Method::GPipe, p, n, mb);
        let pm = Schedule::simulate(Method::PipeMare, p, n, mb);
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
        // Every microbatch contributes exactly one F and one B per stage.
        for method in Method::ALL {
            let (p, n, mb) = (3usize, 2usize, 2usize);
            let sched = Schedule::simulate(method, p, n, mb);
            let busy: usize =
                sched.grid.iter().flat_map(|r| r.iter()).filter(|&&op| op != SlotOp::Idle).count();
            assert_eq!(busy, 2 * p * n * mb);
        }
    }

    #[test]
    fn render_shapes() {
        let sched = Schedule::simulate(Method::GPipe, 2, 1, 1);
        let rows = sched.render();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("stage 0:"));
        assert!(rows[0].contains("F0"));
        assert!(rows[0].contains("B0"));
    }

    #[test]
    fn recompute_schedule_emits_replay_slots() {
        use crate::recompute::stage_replays;
        let (p, seg) = (9usize, 3usize);
        let sched = Schedule::simulate_recompute(p, seg, 2, 10);
        // The ideal full-throughput schedule spans total + 2P − 1 slots.
        assert_eq!(sched.slots(), 20 + 2 * p - 1);
        for s in 0..p {
            let has_recomp = sched.grid[s].iter().any(|op| matches!(op, SlotOp::Recomp(_)));
            assert_eq!(
                has_recomp,
                stage_replays(p, seg, s),
                "stage {s}: replay cells only in replay segments"
            );
        }
        // Early microbatches' replay cells are collision-free and must
        // precede the same microbatch's backward.
        let r = sched.find(1, SlotOp::Recomp(0)).expect("stage 1 replays microbatch 0");
        let b = sched.find(1, SlotOp::Bkwd(0)).expect("stage 1 runs backward 0");
        assert!(r < b, "replay must precede the backward it feeds");
        // Replay cells render as R<m>.
        assert!(sched.render()[1].contains("R0"));
    }

    #[test]
    fn recompute_schedule_with_full_segment_has_no_replays() {
        // S = P: a single segment spanning the pipeline is all stash.
        let sched = Schedule::simulate_recompute(4, 4, 2, 4);
        let replays = sched
            .grid
            .iter()
            .flat_map(|r| r.iter())
            .filter(|op| matches!(op, SlotOp::Recomp(_)))
            .count();
        assert_eq!(replays, 0);
    }
}
