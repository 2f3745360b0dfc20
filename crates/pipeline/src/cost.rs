//! Hardware-efficiency cost models: throughput and memory (§2.2, App. A).

use pipemare_theory::{delay_slots, recomp_delay_slots};

use crate::delay::{Method, PipelineClock};

/// GPipe's bubble-limited normalized throughput `N/(N+P−1)` (Table 1),
/// relative to a bubble-free pipeline.
pub fn gpipe_bubble_throughput(p: usize, n: usize) -> f64 {
    n as f64 / (n + p - 1) as f64
}

/// GPipe's maximum throughput relative to PipeMare under *equal
/// activation-memory and compute budgets* (App. A.3): the paper's latency
/// model gives `l_fwd = max(α/3, 1)`, `l_bkwd = max(2α/3, 1)` for GPipe
/// microbatches `α×` larger than PipeMare's, with `N = P/α` microbatches;
/// optimizing over `α` yields ≈ 0.30 (0.29 with recompute enabled, where
/// the latency split is 1/4 forward, 3/4 backward).
///
/// This is the number the paper uses for GPipe's throughput in Tables 2–3.
pub fn gpipe_equal_budget_throughput(recompute: bool) -> f64 {
    let (f_div, b_div) = if recompute { (4.0, 4.0 / 3.0) } else { (3.0, 1.5) };
    let mut best = 0.0f64;
    let mut alpha = 0.01f64;
    while alpha <= 10.0 {
        let lf = (alpha / f_div).max(1.0);
        let lb = (alpha / b_div).max(1.0);
        let throughput = 1.0 / ((lf + lb) * (1.0 + 1.0 / alpha));
        best = best.max(throughput);
        alpha += 1e-4;
    }
    best
}

/// Normalized throughput of each method in the *bubble* model (Table 1).
pub fn normalized_throughput(method: Method, p: usize, n: usize) -> f64 {
    match method {
        Method::GPipe => gpipe_bubble_throughput(p, n),
        Method::PipeDream | Method::PipeMare => 1.0,
    }
}

/// Weight + optimizer memory model (the paper's Table 2 "Weight+optimizer
/// Memory" column).
///
/// All quantities are in units of `W` (one copy of the model weights).
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    /// Per-parameter copies the optimizer keeps, including master weights
    /// and gradient (3 for SGD+momentum, 4 for Adam/AdamW — §3.2
    /// footnote 2).
    pub optimizer_copies: usize,
}

impl MemoryModel {
    /// Weight + optimizer memory of a method, in units of `W`.
    ///
    /// `stage_weight_fracs[s]` is the fraction of parameters on stage `s`
    /// (summing to 1); PipeDream's stashing cost is the *weighted* mean
    /// delay `Σ_s frac_s·τ_fwd,s`, which reproduces the paper's numbers
    /// both for parameter-balanced Transformers (`≈ P/N` extra copies)
    /// and for back-loaded ResNets (much less).
    ///
    /// `t2_correction` adds the PipeMare δ-buffer: one extra copy of `W`.
    pub fn weight_opt_copies(
        &self,
        method: Method,
        clk: &PipelineClock,
        stage_weight_fracs: &[f64],
        t2_correction: bool,
    ) -> f64 {
        assert_eq!(stage_weight_fracs.len(), clk.stages, "one weight fraction per stage");
        let base = self.optimizer_copies as f64;
        match method {
            Method::GPipe => base,
            Method::PipeDream => {
                let stash: f64 = stage_weight_fracs
                    .iter()
                    .enumerate()
                    .map(|(s, &f)| f * clk.nominal_tau_fwd(s))
                    .sum();
                base + stash
            }
            Method::PipeMare => base + if t2_correction { 1.0 } else { 0.0 },
        }
    }

    /// Memory relative to GPipe (Table 2's "X" column).
    pub fn relative_to_gpipe(
        &self,
        method: Method,
        clk: &PipelineClock,
        stage_weight_fracs: &[f64],
        t2_correction: bool,
    ) -> f64 {
        self.weight_opt_copies(method, clk, stage_weight_fracs, t2_correction)
            / self.optimizer_copies as f64
    }
}

/// Activation-memory model (App. A.1–A.2, Tables 4–5, Figure 6).
///
/// Counts are in units of `M` (one microbatch's activations for one
/// layer), assuming fine-grained pipelining `P = L` as in App. A.2.
#[derive(Clone, Copy, Debug)]
pub struct ActivationModel {
    /// Number of pipeline stages `P` (= layers `L`).
    pub p: usize,
}

impl ActivationModel {
    /// Per-stage cached-activation counts *without* recompute: stage `s`
    /// (0-indexed) holds `2(P−1−s)+1` microbatch activations (the green +
    /// orange bars of Figure 6).
    pub fn profile_no_recompute(&self) -> Vec<usize> {
        (0..self.p).map(|s| delay_slots(self.p, s)).collect()
    }

    /// Per-stage cached-activation counts *with* PipeMare Recompute using
    /// segments of `seg` stages: the first stage of each segment keeps its
    /// full in-flight window (to replay from), later stages only keep the
    /// `2(S−j)` recompute buffers (the green bars of Figure 6).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is zero or exceeds `P`.
    pub fn profile_recompute(&self, seg: usize) -> Vec<usize> {
        assert!(seg > 0 && seg <= self.p, "segment size {seg} invalid for P = {}", self.p);
        (0..self.p)
            .map(|s| {
                let window = delay_slots(self.p, s);
                if s % seg == 0 {
                    window
                } else {
                    // Recompute buffers, capped by the stage's in-flight
                    // window (a stage never needs more than it would cache
                    // without recompute).
                    recomp_delay_slots(seg, s).min(window)
                }
            })
            .collect()
    }

    /// Total activation memory without recompute: `Σ 2(P−1−s)+1 = P²`.
    pub fn total_no_recompute(&self) -> usize {
        self.profile_no_recompute().iter().sum()
    }

    /// Total activation memory with recompute at segment size `seg`.
    pub fn total_recompute(&self, seg: usize) -> usize {
        self.profile_recompute(seg).iter().sum()
    }

    /// The segment size minimizing total recompute memory (≈ `√P`,
    /// App. A.2); found by exact search.
    ///
    /// Tie-breaking is explicit: among segment sizes with equal total
    /// memory, the **smallest** `S` wins (`min_by_key` keeps the first
    /// minimum of the ascending `1..=P` scan). Smaller segments replay
    /// shorter spans, so τ_recomp = 2(S − s mod S)/N — the delay App. D
    /// folds into T2 — is minimized at no memory cost.
    pub fn optimal_segment(&self) -> usize {
        (1..=self.p).min_by_key(|&s| self.total_recompute(s)).unwrap_or(1)
    }

    /// The paper's Table 5 ratio: activation memory with recompute over
    /// without, in the asymptotic (constant-free) model
    /// `MP^{3/2} / MP² = 1/√P` (0.097 at P = 107, 0.104 at 93, 0.105
    /// at 91).
    pub fn table5_ratio(&self) -> f64 {
        1.0 / (self.p as f64).sqrt()
    }

    /// GPipe activation totals in the same asymptotic model (Table 4 row
    /// 1): `MPN` without recompute, `MP√N` with.
    pub fn gpipe_totals(&self, n: usize) -> (f64, f64) {
        let p = self.p as f64;
        let nf = n as f64;
        (p * nf, p * nf.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_throughput_limits() {
        // N = 1: 1/P. N → ∞: → 1.
        assert!((gpipe_bubble_throughput(10, 1) - 0.1).abs() < 1e-12);
        assert!(gpipe_bubble_throughput(10, 10_000) > 0.999);
        // Table 1 form N/(N+P−1).
        assert!((gpipe_bubble_throughput(47, 19) - 19.0 / 65.0).abs() < 1e-12);
    }

    #[test]
    fn equal_budget_throughput_is_point_three() {
        let t = gpipe_equal_budget_throughput(false);
        assert!((t - 0.30).abs() < 5e-3, "throughput {t}");
        let tr = gpipe_equal_budget_throughput(true);
        assert!((tr - 0.29).abs() < 1e-2, "recompute throughput {tr}");
        assert!(tr < t);
    }

    #[test]
    fn async_methods_full_throughput() {
        assert_eq!(normalized_throughput(Method::PipeMare, 100, 4), 1.0);
        assert_eq!(normalized_throughput(Method::PipeDream, 100, 4), 1.0);
        assert!(normalized_throughput(Method::GPipe, 100, 4) < 0.05);
    }

    #[test]
    fn uniform_pipedream_stash_is_p_over_n() {
        // Uniform parameter distribution: stash = Σ (1/P)·(2(P−i)+1)/N
        // = P/N extra copies (the paper's Table 1 entry `W × P/N`).
        let (p, n) = (93usize, 19usize);
        let clk = PipelineClock::new(p, n);
        let fracs = vec![1.0 / p as f64; p];
        let mm = MemoryModel { optimizer_copies: 4 }; // Adam
        let copies = mm.weight_opt_copies(Method::PipeDream, &clk, &fracs, false);
        let expected = 4.0 + p as f64 / n as f64;
        assert!((copies - expected).abs() < 1e-9, "{copies} vs {expected}");
        // Relative to GPipe ≈ 2.22 — near the paper's IWSLT 2.06×.
        let rel = mm.relative_to_gpipe(Method::PipeDream, &clk, &fracs, false);
        assert!((rel - expected / 4.0).abs() < 1e-9);
        assert!(rel > 1.9 && rel < 2.4, "IWSLT-like relative memory {rel}");
    }

    #[test]
    fn back_loaded_weights_stash_less() {
        // Parameters concentrated in late stages (small delays), as in
        // ResNet: stash should be far below P/N.
        let (p, n) = (10usize, 2usize);
        let clk = PipelineClock::new(p, n);
        let mut fracs = vec![0.01; p];
        fracs[p - 1] = 1.0 - 0.01 * (p - 1) as f64;
        let mm = MemoryModel { optimizer_copies: 3 };
        let stash = mm.weight_opt_copies(Method::PipeDream, &clk, &fracs, false) - 3.0;
        let uniform_stash = p as f64 / n as f64;
        assert!(stash < uniform_stash / 3.0, "stash {stash} vs uniform {uniform_stash}");
    }

    #[test]
    fn pipemare_memory_with_and_without_t2() {
        let clk = PipelineClock::new(8, 4);
        let fracs = vec![1.0 / 8.0; 8];
        let mm = MemoryModel { optimizer_copies: 3 };
        assert_eq!(mm.weight_opt_copies(Method::PipeMare, &clk, &fracs, false), 3.0);
        assert_eq!(mm.weight_opt_copies(Method::PipeMare, &clk, &fracs, true), 4.0);
        // 33% increase for SGD+momentum, 25% for Adam (§3.2 footnote 2).
        assert!(
            (mm.relative_to_gpipe(Method::PipeMare, &clk, &fracs, true) - 4.0 / 3.0).abs() < 1e-9
        );
        let mm_adam = MemoryModel { optimizer_copies: 4 };
        assert!(
            (mm_adam.relative_to_gpipe(Method::PipeMare, &clk, &fracs, true) - 1.25).abs() < 1e-9
        );
    }

    #[test]
    fn activation_totals() {
        let am = ActivationModel { p: 16 };
        // Without recompute: P² = 256.
        assert_eq!(am.total_no_recompute(), 256);
        // Figure 6 example: 16 stages, 4 segments of 4.
        let profile = am.profile_recompute(4);
        assert_eq!(profile.len(), 16);
        // First stage of first segment holds the full window 2·15+1 = 31.
        assert_eq!(profile[0], 31);
        // Second stage holds 2(S−1) = 6 recompute buffers.
        assert_eq!(profile[1], 6);
        assert_eq!(profile[2], 4);
        assert_eq!(profile[3], 2);
        // Second segment restarts with its own window 2·11+1 = 23.
        assert_eq!(profile[4], 23);
        // Recompute total is much smaller.
        assert!(am.total_recompute(4) < am.total_no_recompute() / 2);
    }

    #[test]
    fn optimal_segment_near_sqrt_p() {
        for p in [16usize, 64, 100, 144] {
            let am = ActivationModel { p };
            let s = am.optimal_segment();
            let sqrt_p = (p as f64).sqrt();
            assert!(
                (s as f64) > 0.4 * sqrt_p && (s as f64) < 2.5 * sqrt_p,
                "P = {p}: optimal segment {s} far from √P = {sqrt_p}"
            );
        }
    }

    #[test]
    fn table5_ratios_match_paper() {
        // Paper Table 5: 0.097 at 107 stages, 0.104 at 93, 0.105 at 91.
        assert!((ActivationModel { p: 107 }.table5_ratio() - 0.097).abs() < 1e-3);
        assert!((ActivationModel { p: 93 }.table5_ratio() - 0.104).abs() < 1e-3);
        assert!((ActivationModel { p: 91 }.table5_ratio() - 0.105).abs() < 1e-3);
    }

    #[test]
    fn gpipe_asymptotics() {
        let am = ActivationModel { p: 100 };
        let (no_rc, rc) = am.gpipe_totals(16);
        assert_eq!(no_rc, 1600.0);
        assert_eq!(rc, 400.0);
    }
}
