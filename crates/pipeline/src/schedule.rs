//! The timing model of a forward-only (inference) pipeline, which the
//! serving simulator drives.

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
}
