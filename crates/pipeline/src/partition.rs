//! Stage partitioning: assigning weight units to pipeline stages.
//!
//! The paper (§4.1): "we traverse model weights according to their
//! topological order in the computation graph, always treating the weight
//! and bias in the same layer as a single model weight. Next, we divide
//! these model weights evenly into P stages."

/// A partition of a flat parameter vector into `P` contiguous stages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePartition {
    /// Half-open parameter ranges, one per stage, tiling `0..total`.
    ranges: Vec<(usize, usize)>,
    total: usize,
}

impl StagePartition {
    /// Partitions weight units (given as `(offset, len)` pairs in
    /// topological order, tiling `0..total`) into `stages` contiguous
    /// groups with balanced *unit counts* (the paper's "divide these
    /// model weights evenly into P stages").
    ///
    /// When `stages` exceeds the number of units, unit boundaries are
    /// abandoned and the parameter vector is split evenly by element —
    /// this models the paper's finest-grained setting where a single
    /// weight can span its own stage (and its "2×" variants).
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0`, units don't tile `0..total`, or
    /// `stages > total`.
    pub fn from_units(units: &[(usize, usize)], total: usize, stages: usize) -> Self {
        assert!(stages > 0, "stages must be positive");
        assert!(stages <= total, "cannot make {stages} non-empty stages from {total} params");
        let mut cursor = 0usize;
        for &(off, len) in units {
            assert_eq!(off, cursor, "units must tile contiguously");
            cursor += len;
        }
        assert_eq!(cursor, total, "units must cover the parameter vector");
        if stages > units.len() {
            return Self::by_elements(total, stages);
        }
        // The paper's scheme (§4.1): divide the model *weights* evenly —
        // each stage receives an (almost) equal number of consecutive
        // weight units, regardless of their parameter counts. This is
        // what makes PipeDream's stashing cost depend on where the
        // parameter mass sits along the pipeline (Table 2).
        let u = units.len();
        let mut ranges = Vec::with_capacity(stages);
        let mut start = 0usize;
        let mut unit_idx = 0usize;
        for k in 0..stages {
            let next_unit_idx = (k + 1) * u / stages;
            debug_assert!(next_unit_idx > unit_idx);
            let end = if next_unit_idx >= u { total } else { units[next_unit_idx].0 };
            ranges.push((start, end));
            start = end;
            unit_idx = next_unit_idx;
        }
        StagePartition { ranges, total }
    }

    /// Even element-wise split (ignores unit boundaries).
    pub fn by_elements(total: usize, stages: usize) -> Self {
        assert!(stages > 0 && stages <= total);
        let mut ranges = Vec::with_capacity(stages);
        let base = total / stages;
        let extra = total % stages;
        let mut start = 0usize;
        for k in 0..stages {
            let len = base + usize::from(k < extra);
            ranges.push((start, start + len));
            start += len;
        }
        StagePartition { ranges, total }
    }

    /// Number of stages `P`.
    pub fn stages(&self) -> usize {
        self.ranges.len()
    }

    /// Total parameters.
    pub fn total_params(&self) -> usize {
        self.total
    }

    /// The half-open parameter range of stage `s`.
    pub fn range(&self, s: usize) -> (usize, usize) {
        self.ranges[s]
    }

    /// All ranges.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// The stage containing parameter index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= total`.
    pub fn stage_of(&self, i: usize) -> usize {
        assert!(i < self.total, "param index {i} out of range");
        self.ranges.partition_point(|&(_, hi)| hi <= i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(units: &[usize]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut off = 0;
        for &len in units {
            out.push((off, len));
            off += len;
        }
        out
    }

    #[test]
    fn one_stage_takes_everything() {
        let u = tile(&[5, 3, 2]);
        let p = StagePartition::from_units(&u, 10, 1);
        assert_eq!(p.ranges(), &[(0, 10)]);
    }

    #[test]
    fn stages_equal_units_maps_one_to_one() {
        let u = tile(&[5, 3, 2, 7]);
        let p = StagePartition::from_units(&u, 17, 4);
        assert_eq!(p.ranges(), &[(0, 5), (5, 8), (8, 10), (10, 17)]);
    }

    #[test]
    fn balanced_grouping_of_uniform_units() {
        let u = tile(&[10; 8]);
        let p = StagePartition::from_units(&u, 80, 4);
        assert_eq!(p.ranges(), &[(0, 20), (20, 40), (40, 60), (60, 80)]);
    }

    #[test]
    fn more_stages_than_units_splits_elements() {
        let u = tile(&[6, 6]);
        let p = StagePartition::from_units(&u, 12, 4);
        assert_eq!(p.stages(), 4);
        assert_eq!(p.range(0), (0, 3));
        // Tiles entire vector.
        assert_eq!(p.range(3).1, 12);
    }

    #[test]
    fn every_stage_nonempty_and_tiling() {
        for stages in 1..=12 {
            let u = tile(&[3, 17, 1, 9, 2, 40, 5, 5, 8, 10, 3, 7]);
            let total = 110;
            let p = StagePartition::from_units(&u, total, stages);
            assert_eq!(p.stages(), stages);
            let mut cursor = 0;
            for s in 0..stages {
                let (lo, hi) = p.range(s);
                assert_eq!(lo, cursor);
                assert!(hi > lo, "stage {s} empty with {stages} stages");
                cursor = hi;
            }
            assert_eq!(cursor, total);
        }
    }

    #[test]
    fn stage_of_is_consistent_with_ranges() {
        let u = tile(&[4, 4, 4]);
        let p = StagePartition::from_units(&u, 12, 3);
        for i in 0..12 {
            let s = p.stage_of(i);
            let (lo, hi) = p.range(s);
            assert!(lo <= i && i < hi);
        }
    }

    #[test]
    fn balance_is_reasonable_for_skewed_units() {
        // One giant unit among small ones: stage sizes can't be perfectly
        // equal, but no stage should receive more than the giant + slack.
        let u = tile(&[1, 1, 100, 1, 1, 1]);
        let p = StagePartition::from_units(&u, 105, 3);
        assert_eq!(p.stages(), 3);
        let sizes: Vec<usize> = p.ranges().iter().map(|(lo, hi)| hi - lo).collect();
        assert!(sizes.iter().all(|&s| s >= 1));
        assert_eq!(sizes.iter().sum::<usize>(), 105);
    }

    #[test]
    #[should_panic(expected = "non-empty stages")]
    fn too_many_stages_rejected() {
        StagePartition::from_units(&tile(&[2]), 2, 3);
    }
}
