//! Order statistics behind every number the benchmark reports, and the
//! rule that decides whether two sets of runs agree.

/// Which direction of a metric is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` with linear interpolation between the two
/// nearest order statistics. Returns 0 for an empty sample so a layer a
/// workload never exercised reports 0 instead of NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The quiet decile: the favourable 10th percentile of a sample, p10 of
/// a cost and p90 of a rate. Host noise on a shared guest only ever adds
/// time, so the favourable tail repeats where the median and the mean
/// drift with the neighbours (see README, "Noise study").
pub fn quiet_decile(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(values, 0.10),
        Better::Higher => quantile(values, 0.90),
    }
}

/// The quiet decile of the quietest round: each round's quiet decile,
/// then the best of them. One round of four that a neighbour slowed from
/// start to end would drag a decile pooled over all rounds; it cannot drag
/// the best round's.
pub fn quietest_round(rounds: &[Vec<f64>], better: Better) -> f64 {
    let deciles = rounds.iter().filter(|r| !r.is_empty()).map(|r| quiet_decile(r, better));
    match better {
        Better::Lower => deciles.fold(f64::INFINITY, f64::min),
        Better::Higher => deciles.fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Time of a fixed sequence of segments that ran once per round: each
/// segment taken from the round in which it ran quietest, then summed.
/// The work of a segment is the same in every round and the host only
/// adds to it, so one burst spoils a whole window of consecutive ops but
/// rarely the same op in every round.
pub fn quietest_segments(rounds: &[Vec<f64>]) -> f64 {
    let segments = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..segments).map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).sum()
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the driver applies to the values of ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let at = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                // Taken after clamping `j`, so the ends extrapolate as
                // Python's do.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

/// By what share of `first` the value `second` is worse (negative when it
/// is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// One end-to-end metric of one workload compared across two sets of runs
/// of the same code.
#[derive(Clone, Debug)]
pub struct SetComparison {
    pub quartiles_a: (f64, f64, f64),
    pub quartiles_b: (f64, f64, f64),
    /// Each set's quartile distance over its median, divided by the bound.
    pub spread_over_bound: (f64, f64),
    /// Worsening of set B's median against set A's, divided by the bound.
    pub shift_over_bound: f64,
}

impl SetComparison {
    /// The sets agree when no ratio exceeds 1.
    pub fn agrees(&self) -> bool {
        self.spread_over_bound.0 <= 1.0
            && self.spread_over_bound.1 <= 1.0
            && self.shift_over_bound <= 1.0
    }
}

pub fn compare_sets(a: &[f64], b: &[f64], better: Better, bound: f64) -> SetComparison {
    let (qa, qb) = (quartiles(a), quartiles(b));
    SetComparison {
        quartiles_a: qa,
        quartiles_b: qb,
        spread_over_bound: (spread(a) / bound, spread(b) / bound),
        shift_over_bound: worsening(qa.1, qb.1, better) / bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn quiet_decile_takes_the_favourable_tail_in_both_directions() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quiet_decile(&v, Better::Lower), 10.0);
        assert_eq!(quiet_decile(&v, Better::Higher), 90.0);
        // A burst of slow samples moves the mean, not the quiet decile.
        let mut noisy = v.clone();
        for x in noisy.iter_mut().skip(50) {
            *x += 1000.0;
        }
        assert_eq!(quiet_decile(&noisy, Better::Lower), 10.0);
        assert!(mean(&noisy) > 400.0);
    }

    #[test]
    fn quietest_round_ignores_a_round_that_was_slow_throughout() {
        let quiet: Vec<f64> = (0..=100).map(f64::from).collect();
        let slow: Vec<f64> = quiet.iter().map(|x| x + 500.0).collect();
        assert_eq!(quietest_round(&[slow.clone(), quiet.clone()], Better::Lower), 10.0);
        assert_eq!(quietest_round(&[slow, quiet, Vec::new()], Better::Higher), 590.0);
    }

    #[test]
    fn quietest_segments_take_each_segment_from_its_best_round() {
        // A burst over two neighbouring ops in each round, never the same.
        let rounds =
            [vec![5.0, 90.0, 80.0, 10.0], vec![5.5, 10.0, 10.0, 70.0], vec![60.0, 11.0, 9.0, 10.5]];
        assert_eq!(quietest_segments(&rounds), 5.0 + 10.0 + 9.0 + 10.0);
        assert_eq!(quietest_segments(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q2 - 1.5).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn set_comparison_flags_shift_and_spread_separately() {
        let a = [100.0, 101.0, 102.0];
        let same = compare_sets(&a, &[101.0, 100.5, 102.0], Better::Lower, 0.10);
        assert!(same.agrees(), "{same:?}");
        let shifted = compare_sets(&a, &[115.0, 116.0, 117.0], Better::Lower, 0.10);
        assert!(shifted.shift_over_bound > 1.0 && !shifted.agrees());
        // A faster second set is not a disagreement the driver would reject.
        let faster = compare_sets(&a, &[80.0, 81.0, 82.0], Better::Lower, 0.10);
        assert!(faster.shift_over_bound < 0.0 && faster.agrees());
        let wide = compare_sets(&a, &[80.0, 101.0, 125.0], Better::Lower, 0.10);
        assert!(wide.spread_over_bound.1 > 1.0 && !wide.agrees());
        let rate = compare_sets(&[50.0, 51.0, 52.0], &[40.0, 41.0, 42.0], Better::Higher, 0.10);
        assert!(rate.shift_over_bound > 1.0);
    }
}
