//! The pipeline's closed forms (Table 1, App. A.3, App. D), written once:
//! the pipeline clock, the cost models and telemetry all call these.

/// Microbatch-slot distance between a weight's forward read at stage
/// `s` (0-indexed) of a `stages`-deep pipeline and its update:
/// `2(P−1−s) + 1` — Table 1's `2(P−i)+1` with `i = s+1`. Panics if `s`
/// is not a stage of the pipeline.
pub fn delay_slots(stages: usize, s: usize) -> usize {
    assert!(s < stages, "stage {s} out of range");
    2 * (stages - 1 - s) + 1
}

/// Microbatch-slot distance between a weight's *replay* forward at stage
/// `s` and its update, with recompute segments of `seg` stages:
/// `2(S − (s mod S))` (App. D). The replay wave leaves a segment's
/// boundary `2S` slots before the boundary's backward and moves one
/// stage per slot. Panics if `seg` is zero.
pub fn recomp_delay_slots(seg: usize, s: usize) -> usize {
    assert!(seg > 0, "segment size must be positive");
    2 * (seg - s % seg)
}

/// The throughput model's bubble fraction for a `P`-stage pipeline with
/// `N` microbatches per minibatch under GPipe's flushes:
/// `1 − N/(N+P−1) = (P−1)/(N+P−1)`. Panics if either is zero.
pub fn gpipe_bubble_fraction(stages: usize, n_micro: usize) -> f64 {
    assert!(stages > 0 && n_micro > 0);
    (stages as f64 - 1.0) / (n_micro as f64 + stages as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_the_paper() {
        assert!((gpipe_bubble_fraction(4, 2) - 0.6).abs() < 1e-12);
        assert_eq!(gpipe_bubble_fraction(1, 3), 0.0);
        assert_eq!(delay_slots(4, 0), 7);
        assert_eq!(delay_slots(4, 3), 1);
        // P = 1: one slot between the forward read and the update.
        assert_eq!(delay_slots(1, 0), 1);
        // App. D: segment size 4 → boundary replays 8 slots early, the
        // segment's last stage only 2.
        for s in 0..16 {
            assert_eq!(recomp_delay_slots(4, s), 2 * (4 - s % 4));
        }
        assert_eq!(recomp_delay_slots(3, 7), 4);
        assert_eq!(recomp_delay_slots(1, 0), 2);
    }
}
