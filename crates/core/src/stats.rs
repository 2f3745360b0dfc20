//! Run statistics and the normalized time model.

use pipemare_pipeline::{gpipe_equal_budget_throughput, Method};

/// One epoch's record in a training run.
#[derive(Clone, Copy, Debug)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Evaluation metric after the epoch (accuracy %, BLEU, or −loss).
    pub metric: f32,
    /// Cumulative normalized training time through this epoch.
    pub time: f64,
    /// Parameter norm at epoch end.
    pub param_norm: f32,
}

/// A complete training run.
#[derive(Clone, Debug, Default)]
pub struct RunHistory {
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Whether the run diverged.
    pub diverged: bool,
    /// Whether the run was stopped early by the health hook's halt
    /// policy (see [`crate::HealthHook`]).
    pub halted: bool,
    /// Label for reports.
    pub label: String,
}

impl RunHistory {
    /// Best (maximum) metric achieved.
    pub fn best_metric(&self) -> f32 {
        self.epochs.iter().map(|e| e.metric).fold(f32::NEG_INFINITY, f32::max)
    }

    /// First epoch (1-based count, as the paper reports) whose metric
    /// reaches `target`, or `None`.
    pub fn epochs_to_target(&self, target: f32) -> Option<usize> {
        self.epochs.iter().find(|e| e.metric >= target).map(|e| e.epoch + 1)
    }

    /// Cumulative normalized time at which `target` is first reached, or
    /// `None` (the paper's "∞" entries).
    pub fn time_to_target(&self, target: f32) -> Option<f64> {
        self.epochs.iter().find(|e| e.metric >= target).map(|e| e.time)
    }

    /// Final epoch's metric.
    pub fn final_metric(&self) -> f32 {
        self.epochs.last().map(|e| e.metric).unwrap_or(f32::NAN)
    }
}

impl std::fmt::Display for RunHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} epochs, best {:.2}, final {:.2}, time {:.1}{}",
            if self.label.is_empty() { "run" } else { &self.label },
            self.epochs.len(),
            self.best_metric(),
            self.final_metric(),
            self.epochs.last().map(|e| e.time).unwrap_or(0.0),
            if self.diverged {
                " (diverged)"
            } else if self.halted {
                " (halted)"
            } else {
                ""
            }
        )
    }
}

/// Normalized time cost of one epoch for a method (PipeMare/PipeDream
/// epoch = 1.0). GPipe pays the equal-budget throughput penalty of
/// App. A.3 (≈ 1/0.3); a PipeMare epoch still inside the synchronous T3
/// warmup also runs GPipe-style.
pub fn epoch_time(method: Method, in_warmup: bool) -> f64 {
    let gpipe_cost = 1.0 / gpipe_equal_budget_throughput(false);
    match method {
        Method::GPipe => gpipe_cost,
        Method::PipeDream => 1.0,
        Method::PipeMare => {
            if in_warmup {
                gpipe_cost
            } else {
                1.0
            }
        }
    }
}

/// Amortized throughput of a PipeMare run with `warmup` of `total` epochs
/// synchronous (Table 2 reports e.g. 0.6× on IWSLT with 10/60 warmup
/// epochs... throughput = total / Σ epoch_time).
pub fn amortized_throughput(method: Method, warmup_epochs: usize, total_epochs: usize) -> f64 {
    let mut time = 0.0;
    for e in 0..total_epochs {
        time += epoch_time(method, e < warmup_epochs && method == Method::PipeMare);
    }
    total_epochs as f64 / time
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(metrics: &[f32]) -> RunHistory {
        RunHistory {
            epochs: metrics
                .iter()
                .enumerate()
                .map(|(i, &m)| EpochRecord {
                    epoch: i,
                    train_loss: 1.0,
                    metric: m,
                    time: (i + 1) as f64,
                    param_norm: 1.0,
                })
                .collect(),
            diverged: false,
            halted: false,
            label: "test".into(),
        }
    }

    #[test]
    fn best_and_targets() {
        let h = history(&[10.0, 30.0, 25.0, 40.0]);
        assert_eq!(h.best_metric(), 40.0);
        assert_eq!(h.epochs_to_target(30.0), Some(2));
        assert_eq!(h.epochs_to_target(50.0), None);
        assert_eq!(h.time_to_target(25.0), Some(2.0));
        assert_eq!(h.final_metric(), 40.0);
    }

    #[test]
    fn display() {
        let mut h = history(&[10.0, 20.0]);
        h.label = "PipeMare+T1".into();
        let s = format!("{h}");
        assert!(s.contains("PipeMare+T1"));
        assert!(s.contains("best 20.00"));
        assert!(!s.contains("diverged"));
        h.diverged = true;
        assert!(format!("{h}").contains("diverged"));
    }

    #[test]
    fn epoch_time_ordering() {
        assert!(epoch_time(Method::GPipe, false) > 3.0);
        assert_eq!(epoch_time(Method::PipeDream, false), 1.0);
        assert_eq!(epoch_time(Method::PipeMare, false), 1.0);
        assert!(epoch_time(Method::PipeMare, true) > 3.0);
    }

    #[test]
    fn amortized_throughput_matches_paper_iwslt() {
        // 10 warmup epochs out of 35 async-eligible total: the paper
        // reports ~0.6× throughput for PipeMare on IWSLT.
        let t = amortized_throughput(Method::PipeMare, 10, 35);
        assert!(t > 0.5 && t < 0.7, "amortized throughput {t}");
        // No warmup → full throughput.
        assert_eq!(amortized_throughput(Method::PipeMare, 0, 50), 1.0);
        // GPipe is always at the equal-budget penalty.
        let g = amortized_throughput(Method::GPipe, 0, 50);
        assert!((g - 0.30).abs() < 0.01);
    }
}
