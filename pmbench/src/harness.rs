//! What the training and the serving harness share: the run's settings,
//! the outcome they fill in, and the run shape's constants.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// Cold rounds per run. Each round constructs everything again, so every
/// measured window is short while the run as a whole is long, and one
/// run yields `ROUNDS` samples of set-up time.
pub const ROUNDS: usize = 4;

/// Further rounds that stop once ready. They only add samples of set-up
/// time: with eight samples of each of its segments, a segment that was
/// disturbed in every one of them is rare even on a busy host.
pub const SETUP_ONLY_ROUNDS: usize = 4;

/// Workload constants are sized for a run that measures this long;
/// `--seconds` scales the measured op counts and phase lengths from it.
pub const NOMINAL_SECONDS: f64 = 30.0;

/// Splits a sequence of ops into back-to-back segments: each `lap` is the
/// time since the previous one, so the laps add up to the wall time.
pub struct Laps(Instant);

impl Laps {
    pub fn start() -> Self {
        Laps(Instant::now())
    }

    /// Seconds since the start or the previous lap.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let secs = (now - self.0).as_secs_f64();
        self.0 = now;
        secs
    }
}

pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// `--seconds ÷ NOMINAL_SECONDS × --scale`.
    pub scale: f64,
    pub trace: bool,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic counts: the only numbers a later change may claim on.
    pub exact: Vec<(String, String)>,
    pub checks: Vec<Check>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn exact(&mut self, name: &str, value: impl Display) {
        self.exact.push((name.to_string(), value.to_string()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Display) {
        self.checks.push(Check { name: name.to_string(), ok, detail: detail.to_string() });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// FNV-1a over the bit patterns, so equal hashes mean bit-identical
/// parameters for every purpose of this benchmark.
pub fn hash_f32(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// Ticks the hypervisor ran someone else while this guest wanted the CPU,
/// from the `cpu` line of `/proc/stat`; 0 where that is not readable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse().ok()))
        .unwrap_or(0)
}

/// A workload count scaled by the run's length, never below `floor`.
pub fn scaled(count: usize, scale: f64, floor: usize) -> usize {
    ((count as f64 * scale).round() as usize).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_tells_bit_patterns_apart() {
        assert_eq!(hash_f32(&[1.0, 2.0]), hash_f32(&[1.0, 2.0]));
        assert_ne!(hash_f32(&[0.0]), hash_f32(&[-0.0]));
        assert_ne!(hash_f32(&[1.0, 2.0]), hash_f32(&[2.0, 1.0]));
    }

    #[test]
    fn scaled_counts_round_and_keep_a_floor() {
        assert_eq!(scaled(120, 20.0 / 30.0, 8), 80);
        assert_eq!(scaled(55, 0.01, 8), 8);
    }
}
