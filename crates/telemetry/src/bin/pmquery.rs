//! `pmquery` — historical analysis over pipemare telemetry journals.
//!
//! Where `pmtop` answers "what is happening now" from a live scrape and
//! `pmtrace` answers "what happened in the black box", `pmquery` reads
//! the durable journal directories written by `--journal` /
//! `Server::journal_to` and answers questions about whole runs:
//!
//! ```text
//! pmquery range  <journal-dir>... [--from SECS] [--to SECS] [--stage N] [--json]
//! pmquery alerts <journal-dir>... [--json]
//! pmquery diff   <journal-dir> --baseline <journal-dir> [--json]
//! ```
//!
//! `range` merges any number of journals onto the driver clock (using
//! the handshake offsets recorded in each journal's `OFFSET` file /
//! manifest) at the best available resolution — raw 250 ms frames where
//! they survive, compacted rollups for older history. `alerts` replays
//! the default alert rule pack over each journal's history, printing
//! every fire/resolve transition hysteresis would have produced live.
//! `diff` compares a run against a baseline run for regression hunts.

use std::process::ExitCode;

use pipemare_telemetry::json::Value;
use pipemare_telemetry::top::{self, fmt};
use pipemare_telemetry::{
    default_rules, merge_journals, rollup, AlertEngine, JournalEntry, JournalReader, LiveSample,
};

mod cli;
use cli::{take_flag, take_opt};

const USAGE: &str = "pmquery: historical queries over pipemare telemetry journals

usage:
  pmquery range  <journal-dir>... [options]
  pmquery alerts <journal-dir>... [options]
  pmquery diff   <journal-dir> --baseline <journal-dir> [options]

options:
  --from SECS       drop samples before this time (driver clock seconds)
  --to SECS         drop samples after this time
  --stage N         only stage N's rows (range)
  --baseline DIR    the journal to diff against (diff)
  --json            one compact JSON object per row instead of a table

a journal directory is what a process writes when started with
--journal <dir> (orchestrator / workers) or Server::journal_to; raw
250 ms segments serve recent history, compacted rollups the old range.
";

struct Options {
    command: String,
    dirs: Vec<String>,
    from_us: Option<u64>,
    to_us: Option<u64>,
    stage: Option<u32>,
    baseline: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let micros = |secs: Option<f64>| secs.map(|s| (s * 1e6) as u64);
    let from_us = micros(take_opt(&mut args, "--from")?);
    let to_us = micros(take_opt(&mut args, "--to")?);
    let stage = take_opt(&mut args, "--stage")?;
    let baseline = take_opt(&mut args, "--baseline")?;
    let json = take_flag(&mut args, "--json");
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        return Err(USAGE.to_string());
    }
    let command = args.remove(0);
    if args.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(Options { command, dirs: args, from_us, to_us, stage, baseline, json })
}

fn open_all(dirs: &[String]) -> Result<Vec<JournalReader>, String> {
    dirs.iter().map(|d| JournalReader::open(d).map_err(|e| format!("pmquery: {d}: {e}"))).collect()
}

fn in_range(opts: &Options, ts_us: u64) -> bool {
    opts.from_us.is_none_or(|from| ts_us >= from) && opts.to_us.is_none_or(|to| ts_us <= to)
}

/// A `range --json` row's leading fields: which sample it comes from.
fn head(role: &str, entry: &JournalEntry) -> Value {
    Value::obj()
        .set("t_us", entry.sample.ts_us)
        .set("role", role)
        .set("rollup", entry.rollup)
        .set("seq", entry.sample.seq)
        .set("window_us", entry.sample.window_us)
}

fn cmd_range(opts: &Options) -> Result<String, String> {
    let readers = open_all(&opts.dirs)?;
    let (merged, truncated) = merge_journals(&readers).map_err(|e| format!("pmquery: {e}"))?;
    let mut out = String::new();
    let mut rows = 0usize;
    if !opts.json {
        out.push_str(
            "t_s        role          res   stage   util%   fwd_µs   wait_µs   tau    events\n",
        );
    }
    for (role, entry) in &merged {
        if !in_range(opts, entry.sample.ts_us) {
            continue;
        }
        let res = if entry.rollup { "roll" } else { "raw" };
        for st in &entry.sample.stages {
            if opts.stage.is_some_and(|want| want != st.stage) {
                continue;
            }
            rows += 1;
            if opts.json {
                let n_stages = readers.iter().find(|r| r.role == *role).map_or(0, |r| r.n_stages);
                let row = top::stage_json(head(role, entry), st, n_stages);
                out.push_str(&row.to_compact());
                out.push('\n');
            } else {
                out.push_str(&format!(
                    "{:<10} {:<13} {:<5} {:>5}   {:>5}   {:>6}   {:>7}   {:>5}  {:>6}\n",
                    fmt(entry.sample.ts_us as f64 / 1e6, 2),
                    role,
                    res,
                    st.stage,
                    fmt(100.0 * st.util, 1),
                    fmt(st.fwd_us, 1),
                    st.wait_us,
                    fmt(st.tau, 2),
                    st.events,
                ));
            }
        }
        // Stage-less samples (e.g. a registry-only serve journal) still
        // count as one row so `range` succeeds on them.
        if entry.sample.stages.is_empty() && opts.stage.is_none() {
            rows += 1;
            if opts.json {
                out.push_str(&head(role, entry).to_compact());
                out.push('\n');
            } else {
                out.push_str(&format!(
                    "{:<10} {:<13} {:<5} {:>5}\n",
                    fmt(entry.sample.ts_us as f64 / 1e6, 2),
                    role,
                    res,
                    "-",
                ));
            }
        }
    }
    if !opts.json {
        out.push_str(&format!(
            "{rows} rows from {} journal(s){}\n",
            readers.len(),
            if truncated > 0 {
                format!(", {truncated} torn tail frame(s) skipped")
            } else {
                String::new()
            },
        ));
    }
    if rows == 0 && merged.is_empty() {
        return Err("pmquery: no samples in the given journals".to_string());
    }
    Ok(out)
}

fn cmd_alerts(opts: &Options) -> Result<String, String> {
    let readers = open_all(&opts.dirs)?;
    let mut out = String::new();
    let mut transitions = 0usize;
    let mut any_samples = false;
    for reader in &readers {
        // One engine per journal: hysteresis and counter deltas are
        // per-process state, replayed on that journal's own clock.
        let engine = AlertEngine::new(default_rules());
        let (entries, _) = reader.samples().map_err(|e| format!("pmquery: {e}"))?;
        any_samples |= !entries.is_empty();
        for JournalEntry { sample, .. } in &entries {
            for t in engine.evaluate(sample) {
                let aligned_us = (sample.ts_us as i64 - reader.clock_offset_us).max(0) as u64;
                if !in_range(opts, aligned_us) {
                    continue;
                }
                transitions += 1;
                if opts.json {
                    let row = Value::obj()
                        .set("t_us", aligned_us)
                        .set("role", reader.role.as_str())
                        .set("rule", t.rule.as_str())
                        .set("label", t.label.as_str())
                        .set("severity", t.severity.name())
                        .set("firing", t.firing)
                        .set("value", t.value);
                    out.push_str(&row.to_compact());
                    out.push('\n');
                } else {
                    let scope =
                        if t.label.is_empty() { String::new() } else { format!(" [{}]", t.label) };
                    out.push_str(&format!(
                        "{:<10} {:<13} {:<8} {:<8} {}{}   value {}\n",
                        fmt(aligned_us as f64 / 1e6, 2),
                        reader.role,
                        if t.firing { "FIRING" } else { "resolved" },
                        t.severity.name(),
                        t.rule,
                        scope,
                        fmt(t.value, 3),
                    ));
                }
            }
        }
    }
    if !opts.json {
        out.push_str(&format!("{transitions} transition(s) across {} journal(s)\n", readers.len()));
    }
    if !any_samples {
        return Err("pmquery: no samples in the given journals".to_string());
    }
    Ok(out)
}

/// One journal's whole history rolled up into one sample: window-weighted
/// mean util and τ per stage, and the last snapshot's cumulative counters.
fn aggregate(dir: &str) -> Result<LiveSample, String> {
    let reader = JournalReader::open(dir).map_err(|e| format!("pmquery: {dir}: {e}"))?;
    let (entries, _) = reader.samples().map_err(|e| format!("pmquery: {e}"))?;
    rollup(entries.iter().map(|e| &e.sample))
        .ok_or_else(|| format!("pmquery: {dir}: journal holds no samples"))
}

fn cmd_diff(opts: &Options) -> Result<String, String> {
    let Some(baseline_dir) = &opts.baseline else {
        return Err("pmquery: diff needs --baseline <journal-dir>".to_string());
    };
    let [dir] = opts.dirs.as_slice() else {
        return Err("pmquery: diff takes exactly one journal plus --baseline".to_string());
    };
    let (cur, base) = (aggregate(dir)?, aggregate(baseline_dir)?);
    let header = format!("== pmquery diff: {baseline_dir} (base) -> {dir} (cur) ==");
    let (text, json) = top::diff(&header, &base, &cur);
    Ok(if opts.json { json.to_compact() + "\n" } else { text })
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let out = match opts.command.as_str() {
        "range" => cmd_range(&opts)?,
        "alerts" => cmd_alerts(&opts)?,
        "diff" => cmd_diff(&opts)?,
        other => return Err(format!("pmquery: unknown command {other:?}\n\n{USAGE}")),
    };
    print!("{out}");
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
