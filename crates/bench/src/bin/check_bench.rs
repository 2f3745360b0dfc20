//! Bench-regression checker: diffs a freshly written benchmark
//! [`ExperimentLog`] JSON against
//! a checked-in baseline (the `BENCH_*.json` files at the repo root).
//!
//! ```text
//! check_bench <baseline.json> <fresh.json> [--tol <rel>]
//! ```
//!
//! Keys are split into two classes by name:
//!
//! * **Deterministic** keys — analytic ratios, measured memory peaks,
//!   stage counts (`stages`, `memory_ratio_*`, `table5.*`, ...) — must
//!   match the baseline within the relative tolerance (default 1e-6).
//!   A mismatch is a FAIL.
//! * **Informational** keys — wall-clock timings and anything derived
//!   from them (`seconds.*`, `gflops.*`, `speedup*`, `throughput*`,
//!   `host_parallelism`, `metric.*`), plus the `dispatch.*` microkernel
//!   tiers (which vary with the host's SIMD features) — they are only
//!   checked to be finite, and the drift is printed.
//!
//! A non-finite value on either side — NaN or ±∞, which the log writes
//! as `null` — fails its key, whatever the key's class.
//!
//! Series are compared over the common prefix: smoke-mode benches sweep
//! a prefix of the full grid, so a shorter fresh series is fine as long
//! as the overlap agrees. Keys present in the baseline but absent from
//! the fresh run are reported as skipped (smoke runs omit full-sweep
//! scalars) and do not fail the check; a fresh run with *no* overlapping
//! keys fails, since it checked nothing.
//!
//! A third class overrides the skip rule: **required** keys
//! (`seconds.{simd,scalar}`, `dispatch.{simd,scalar}`, `bf16_*`) must
//! be present on *both* sides whenever either side has them — a smoke
//! run that silently drops the SIMD-dispatch or bf16-footprint
//! evidence, or a stale baseline missing them, is a FAIL, not a SKIP.
//!
//! Exit code 0 = PASS, 1 = FAIL, 2 = usage/IO error.

use std::path::Path;
use std::process::ExitCode;

use pipemare_bench::report::ExperimentLog;
use pipemare_telemetry::json::parse;

const INFORMATIONAL_PREFIXES: &[&str] =
    &["seconds.", "gflops.", "speedup", "throughput", "host_parallelism", "metric.", "dispatch."];

/// Keys that may never be silently skipped: if either side has a key
/// with one of these prefixes, the other side must have it too. The
/// per-thread pool variants stay skippable (smoke runs sweep a single
/// thread count), but the forced scalar/SIMD pair, the bf16 memory
/// ratios, the serving-policy simulator outputs (`sim.*`) and the
/// journal format evidence (`journal.*`: append bound, frame size,
/// rotation/compaction counts, torn-tail recovery) are the whole point
/// of their benches — a run without them proved nothing.
const REQUIRED_PREFIXES: &[&str] = &[
    "seconds.simd",
    "seconds.scalar",
    "dispatch.simd",
    "dispatch.scalar",
    "bf16_",
    "sim.",
    "journal.",
];

fn is_informational(key: &str) -> bool {
    INFORMATIONAL_PREFIXES.iter().any(|p| key.starts_with(p))
}

fn is_required(key: &str) -> bool {
    REQUIRED_PREFIXES.iter().any(|p| key.starts_with(p))
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// A log's series and scalars as `(name, values)` pairs (scalars are read
/// as length-1 series). `null`, how the log writes NaN and ±∞, reads as
/// NaN and fails its key in [`check`] rather than the whole load.
fn keys(log: ExperimentLog) -> Vec<(String, Vec<f64>)> {
    let scalars = log.scalars.into_iter().map(|(k, v)| (k, vec![v]));
    log.series.into_iter().chain(scalars).collect()
}

fn load(path: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let log = parse(&text).map_err(|e| format!("{path}: bad JSON: {e}"))?;
    Ok(keys(ExperimentLog::from_json(&log).map_err(|e| format!("{path}: {e}"))?))
}

struct Outcome {
    checked: usize,
    skipped: usize,
    failures: Vec<String>,
}

fn check(baseline: &[(String, Vec<f64>)], fresh: &[(String, Vec<f64>)], tol: f64) -> Outcome {
    let mut out = Outcome { checked: 0, skipped: 0, failures: Vec::new() };
    for (key, base_vals) in baseline {
        let Some((_, fresh_vals)) = fresh.iter().find(|(k, _)| k == key) else {
            if is_required(key) {
                out.failures.push(format!("{key}: required key absent from fresh run"));
            } else {
                println!("  SKIP {key}: absent from fresh run");
                out.skipped += 1;
            }
            continue;
        };
        out.checked += 1;
        if let Some(bad) = base_vals.iter().find(|v| !v.is_finite()) {
            out.failures.push(format!("{key}: non-finite baseline value {bad}"));
            continue;
        }
        if let Some(bad) = fresh_vals.iter().find(|v| !v.is_finite()) {
            out.failures.push(format!("{key}: non-finite fresh value {bad}"));
            continue;
        }
        let n = base_vals.len().min(fresh_vals.len());
        let worst = base_vals[..n]
            .iter()
            .zip(&fresh_vals[..n])
            .map(|(&a, &b)| rel_diff(a, b))
            .fold(0.0f64, f64::max);
        if is_informational(key) {
            println!("  info {key}: drift {:.1}% (not gating)", worst * 100.0);
        } else if worst > tol {
            out.failures.push(format!(
                "{key}: relative error {worst:.3e} exceeds tolerance {tol:.0e} \
                 over {n} compared value(s)"
            ));
        } else {
            println!("  ok   {key}: max relative error {worst:.1e} over {n} value(s)");
        }
    }
    for (key, _) in fresh {
        if is_required(key) && !baseline.iter().any(|(k, _)| k == key) {
            out.failures.push(format!(
                "{key}: required key absent from baseline — regenerate the BENCH_*.json"
            ));
        }
    }
    out
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tol = 1e-6f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tol" {
            let v = it.next().ok_or("--tol needs a value")?;
            tol = v.parse().map_err(|_| format!("bad --tol value `{v}`"))?;
        } else {
            paths.push(a.clone());
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return Err("usage: check_bench <baseline.json> <fresh.json> [--tol <rel>]".into());
    };
    let name = Path::new(baseline_path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    println!("check_bench: {name} (tolerance {tol:.0e})");
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;
    let outcome = check(&baseline, &fresh, tol);
    if outcome.checked == 0 {
        return Err("no overlapping keys between baseline and fresh run".into());
    }
    if outcome.failures.is_empty() {
        println!(
            "PASS: {} key(s) checked, {} skipped, no deterministic regressions",
            outcome.checked, outcome.skipped
        );
        Ok(true)
    } else {
        for f in &outcome.failures {
            println!("  FAIL {f}");
        }
        println!("FAIL: {} regression(s) in {name}", outcome.failures.len());
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("check_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(value: &str) -> Vec<(String, Vec<f64>)> {
        let text = format!(r#"{{"series": [], "scalars": [["k", {value}]]}}"#);
        keys(ExperimentLog::from_json(&parse(&text).unwrap()).unwrap())
    }

    #[test]
    fn a_non_finite_fresh_value_fails_its_key() {
        assert_eq!(
            check(&log("1"), &log("null"), 1e-6).failures,
            ["k: non-finite fresh value NaN"]
        );
    }

    #[test]
    fn a_non_finite_baseline_value_fails_its_key() {
        assert_eq!(
            check(&log("null"), &log("1"), 1e-6).failures,
            ["k: non-finite baseline value NaN"]
        );
    }
}
