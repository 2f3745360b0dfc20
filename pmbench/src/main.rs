//! `pmbench`: the end-to-end and per-layer benchmark of the PipeMare
//! reproduction. See `README.md` for the run shape and every metric.
//!
//! ```text
//! pmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! pmbench --sets 2 --runs 3 [--workload <name>]... [--seed <n>] [--seconds <s>]
//! ```

mod adapter;
mod alloc;
mod harness;
mod metrics;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use harness::{Outcome, RunCfg, NOMINAL_SECONDS};
use metrics::{END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] =
    [adapter::RESNET, adapter::TRANSFORMER, adapter::WIDEMLP, adapter::SERVE];

const USAGE: &str = "usage:
  pmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
  pmbench --sets 2 --runs 3 [--workload <name>]... [--seed <n>] [--seconds <s>]
workloads: resnet_inproc transformer_recompute widemlp_tcp serve_mlp_open";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    sets: usize,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: 1.0,
        sets: 0,
        runs: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("a workload name"));
                }
                args.workloads.push(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--scale" => args.scale = value.parse().map_err(|_| bad("a factor"))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--sets" => args.sets = value.parse().map_err(|_| bad("a count"))?,
            "--runs" => args.runs = value.parse().map_err(|_| bad("a count"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(args.seconds) || !positive(args.scale) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints the run for a reader, then the contract's one-line JSON.
fn report(cfg: &RunCfg, out: &Outcome) {
    for c in &out.checks {
        println!("check {} {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    for (name, value) in &out.exact {
        println!("exact {name} = {value}");
    }
    let listed: Vec<(&str, &str)> = if cfg.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut json = String::new();
    for (name, unit) in listed {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {name} = {value} {unit}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct(),
        out.attempted,
        out.failed
    );
}

fn run_one(args: &Args) -> ExitCode {
    let cfg = RunCfg {
        workload: args.workloads[0].clone(),
        seed: args.seed,
        scale: args.seconds / NOMINAL_SECONDS * args.scale,
        trace: args.trace,
    };
    println!(
        "pmbench {} seed={} seconds={} scale={} trace={} pool_threads=1 host_parallelism={}",
        cfg.workload,
        cfg.seed,
        args.seconds,
        args.scale,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    adapter::pin_pool_to_one_thread();
    let out = if cfg.workload == adapter::SERVE { serve::run(&cfg) } else { train::run(&cfg) };
    report(&cfg, &out);
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// --sets: do two sets of runs of the same code agree?
// ---------------------------------------------------------------------------

/// What one child run printed.
struct ChildRun {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    exact: Vec<String>,
}

/// Reads a run's output back: its `exact` lines and the last line's JSON,
/// whose layout is the one `report` writes.
fn parse_child(stdout: &str) -> Option<ChildRun> {
    let last = stdout.lines().last()?;
    let (head, body) = last.split_once("\"metrics\": {")?;
    let number_after = |key: &str| -> Option<u64> {
        let rest = &head[head.find(key)? + key.len()..];
        rest[..rest.find(',')?].trim().parse().ok()
    };
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.trim().parse().ok()?;
        metrics.insert(name.trim_start_matches('"').to_string(), value);
    }
    Some(ChildRun {
        correct: head.contains("\"correct\": true"),
        failed: number_after("\"failed\":")?,
        metrics,
        exact: stdout.lines().filter(|l| l.starts_with("exact ")).map(str::to_string).collect(),
    })
}

fn run_sets(args: &Args) -> ExitCode {
    let workloads: Vec<String> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        args.workloads.clone()
    };
    let exe = std::env::current_exe().expect("the running binary has a path");
    // runs[workload][set] = that set's runs, in order.
    let mut runs: BTreeMap<&str, Vec<Vec<ChildRun>>> = BTreeMap::new();
    let mut ok = true;
    // Interleaved: A1 B1 A2 B2 …, so drift of the host falls on both sets.
    for run in 0..args.runs {
        for w in &workloads {
            for set in 0..args.sets {
                let seed = args.seed + run as u64;
                let output = Command::new(&exe)
                    .args(["--workload", w, "--seed", &seed.to_string(), "--trace", "0"])
                    .args([
                        "--seconds",
                        &args.seconds.to_string(),
                        "--scale",
                        &args.scale.to_string(),
                    ])
                    .output()
                    .expect("the benchmark binary starts");
                let stdout = String::from_utf8_lossy(&output.stdout);
                let Some(child) = parse_child(&stdout).filter(|_| output.status.success()) else {
                    println!("run {run} set {set} {w}: no result ({})", output.status);
                    ok = false;
                    continue;
                };
                println!(
                    "run {run} set {set} {w}: correct={} failed={} {}",
                    child.correct,
                    child.failed,
                    END_TO_END
                        .iter()
                        .map(|m| format!(
                            "{}={:.4}",
                            m.name,
                            child.metrics.get(m.name).copied().unwrap_or(0.0)
                        ))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                let sets =
                    runs.entry(w).or_insert_with(|| (0..args.sets).map(|_| Vec::new()).collect());
                sets[set].push(child);
            }
        }
    }

    let mut worst = 0.0f64;
    let mut failed = 0;
    let mut exact_identical = true;
    println!("\nworkload metric | set A q1 median q3 | set B q1 median q3 | spread/bound A B | shift/bound");
    for (w, sets) in &runs {
        for set in sets {
            failed += set.iter().map(|r| r.failed).sum::<u64>();
            ok &= set.len() == args.runs && set.iter().all(|r| r.correct && r.failed == 0);
        }
        for other in &sets[1..] {
            let same = sets[0].len() == other.len()
                && sets[0].iter().zip(other).all(|(a, b)| a.exact == b.exact);
            if !same {
                println!("{w}: exact lines differ between the sets");
                exact_identical = false;
            }
            for m in &END_TO_END {
                let values = |set: &Vec<ChildRun>| -> Vec<f64> {
                    set.iter().map(|r| r.metrics.get(m.name).copied().unwrap_or(0.0)).collect()
                };
                let c = stats::compare_sets(&values(&sets[0]), &values(other), m.better, m.bound);
                let ((a1, a2, a3), (b1, b2, b3)) = (c.quartiles_a, c.quartiles_b);
                println!(
                    "{w} {} | {a1:.4} {a2:.4} {a3:.4} | {b1:.4} {b2:.4} {b3:.4} | {:.2} {:.2} | {:.2}{}",
                    m.name,
                    c.spread_over_bound.0,
                    c.spread_over_bound.1,
                    c.shift_over_bound,
                    if c.agrees() { "" } else { "  DISAGREE" }
                );
                worst = worst
                    .max(c.spread_over_bound.0)
                    .max(c.spread_over_bound.1)
                    .max(c.shift_over_bound);
            }
        }
    }
    ok &= worst <= 1.0 && exact_identical;
    println!(
        "{{\"sets\": {}, \"runs\": {}, \"agree\": {ok}, \"worst_ratio\": {}, \"exact_identical\": \
         {exact_identical}, \"failed\": {failed}, \"claim\": null}}",
        args.sets,
        args.runs,
        json_number(worst)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.sets >= 2 {
        run_sets(&args)
    } else if args.workloads.len() == 1 {
        run_one(&args)
    } else {
        eprintln!("pmbench: name one --workload, or compare --sets\n{USAGE}");
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reported_run_parses_back() {
        let stdout = "check x ok (y)\nexact w.hash = 00ff\nexact w.n = 3\nmetric a = 1 s\n\
            {\"correct\": true, \"attempted\": 40, \"failed\": 2, \"metrics\": {\"setup_s\": \
            {\"value\": 0.5125, \"unit\": \"s\"}, \"op_ms_quiet\": {\"value\": 51.25, \"unit\": \"ms\"}}}";
        let run = parse_child(stdout).expect("the layout report() writes");
        assert!(run.correct);
        assert_eq!(run.failed, 2);
        assert_eq!(run.exact, ["exact w.hash = 00ff", "exact w.n = 3"]);
        assert_eq!(run.metrics["setup_s"], 0.5125);
        assert_eq!(run.metrics["op_ms_quiet"], 51.25);
    }
}
