//! `pmtrace` — post-mortem analysis of PipeMare trace files.
//!
//! Works on both JSONL event logs (as written by `write_jsonl` and the
//! flight-recorder black-box dumps) and Chrome `trace_event` JSON (as
//! written by `write_chrome_trace`); the format is auto-detected.
//!
//! ```text
//! pmtrace summary <trace> [--seg S] [--json]
//! pmtrace drift   <trace> [--windows N]
//! pmtrace diff    <a> <b>
//! pmtrace path    <trace> <id> [--json]
//! ```

use std::path::Path;
use std::process::ExitCode;

use pipemare_telemetry::analyze;
use pipemare_telemetry::TraceEvent;

mod cli;
use cli::{take_flag, take_opt};

const USAGE: &str = "pmtrace: analyze PipeMare trace files (JSONL or Chrome trace JSON)

usage:
  pmtrace summary <trace> [--seg S] [--json]
      Per-stage utilization, wait breakdown, measured-vs-nominal
      tau_fwd/tau_recomp, bubble fraction vs the (P-1)/(N+P-1) model,
      and straggler identification. --seg supplies the recompute
      segment size for the nominal tau_recomp column; --json emits a
      machine-readable report.
  pmtrace drift <trace> [--windows N]
      Split the trace into N time windows (default 8) and show the
      bubble fraction and measured per-stage tau in each one.
  pmtrace diff <a> <b>
      Compare two runs stage by stage: utilization, wait, measured
      delays, bubble fraction, throughput.
  pmtrace path <trace> <id> [--json]
      Reconstruct the causal span chain of one trace id (a training
      microbatch or a serving request) across processes: each hop with
      its track, stage, duration and inter-hop gap, plus end-to-end
      latency. Works on merged distributed traces.
";

fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    analyze::load_trace(Path::new(path)).map_err(|e| format!("pmtrace: {path}: {e}"))
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return Err(USAGE.to_string());
    };
    args.remove(0);
    match cmd.as_str() {
        "summary" => {
            let seg: Option<usize> = take_opt(&mut args, "--seg")?;
            let json = take_flag(&mut args, "--json");
            let [path] = args.as_slice() else {
                return Err(USAGE.to_string());
            };
            let events = load(path)?;
            if json {
                println!("{}", analyze::summary_json(&events, path, seg).to_pretty());
            } else {
                print!("{}", analyze::summary_text(&events, path, seg));
            }
        }
        "drift" => {
            let windows: usize = take_opt(&mut args, "--windows")?.unwrap_or(8);
            if windows == 0 {
                return Err("pmtrace: --windows must be positive".to_string());
            }
            let [path] = args.as_slice() else {
                return Err(USAGE.to_string());
            };
            print!("{}", analyze::drift_text(&load(path)?, windows, path));
        }
        "diff" => {
            let [a, b] = args.as_slice() else {
                return Err(USAGE.to_string());
            };
            print!("{}", analyze::diff_text(&load(a)?, &load(b)?, a, b));
        }
        "path" => {
            let json = take_flag(&mut args, "--json");
            let [path, id] = args.as_slice() else {
                return Err(USAGE.to_string());
            };
            let id: u64 = id.parse().map_err(|_| format!("pmtrace: bad trace id: {id}"))?;
            let events = load(path)?;
            if json {
                println!("{}", analyze::path_json(&events, id).to_pretty());
            } else {
                print!("{}", analyze::path_text(&events, id));
            }
        }
        _ => return Err(USAGE.to_string()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
