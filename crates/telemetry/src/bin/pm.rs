//! `pm` — the PipeMare telemetry CLI.
//!
//! `pm trace` answers "what happened" from a JSONL trace (a black box,
//! a `write_jsonl` export, a merged distributed or serving trace),
//! `pm top` "what is happening now" from live stats endpoints, and
//! `pm query` "what happened over the whole run" from the durable
//! journal directories written by `--journal` / `Server::journal_to`.
//!
//! ```text
//! pm trace summary <trace.jsonl> [--seg S] [--json]
//! pm trace drift   <trace.jsonl> [--windows N]
//! pm trace diff    <a.jsonl> <b.jsonl>
//! pm trace path    <trace.jsonl> <id> [--json]
//! pm top <addr>... [--watch SECS] [--once] [--json]
//!        [--baseline FILE] [--save-baseline FILE]
//! pm query range  <journal-dir>... [--from SECS] [--to SECS] [--stage N] [--json]
//! pm query alerts <journal-dir>... [--from SECS] [--to SECS] [--json]
//! pm query diff   <journal-dir> --baseline <journal-dir> [--json]
//! ```
//!
//! A stats endpoint answers each TCP connection with one binary scrape
//! frame (see `pipemare_telemetry::scrape`); a `pm top` baseline file
//! holds one raw scrape frame. `pm query range` merges journals onto
//! the driver clock (using the handshake offset in each journal's
//! `OFFSET` file) at the best resolution left — raw 250 ms frames where
//! they survive, compacted rollups for older history; `alerts` replays
//! the default alert rules over each journal's history, printing every
//! fire/resolve transition hysteresis would have produced live.

use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use pipemare_telemetry::json::Value;
use pipemare_telemetry::top::{self, fmt};
use pipemare_telemetry::{
    analyze, default_rules, merge_journals, read_jsonl, rollup, scrape_once, AlertEngine,
    JournalEntry, JournalReader, LiveSample, Scrape, TraceEvent,
};

const USAGE: &str = "pm: PipeMare telemetry CLI

usage:
  pm trace summary <trace.jsonl> [--seg S] [--json]
      Per-stage utilization, wait breakdown, measured-vs-nominal
      tau_fwd/tau_recomp, bubble fraction vs the (P-1)/(N+P-1) model,
      and straggler identification. --seg supplies the recompute
      segment size for the nominal tau_recomp column.
  pm trace drift <trace.jsonl> [--windows N]
      Split the trace into N time windows (default 8) and show the
      bubble fraction and measured per-stage tau in each one.
  pm trace diff <a.jsonl> <b.jsonl>
      Compare two runs stage by stage: utilization, wait, measured
      delays, bubble fraction, throughput.
  pm trace path <trace.jsonl> <id> [--json]
      Reconstruct the causal span chain of one trace id (a training
      microbatch or a serving request) across processes: each hop with
      its track, stage, duration and inter-hop gap, plus end-to-end
      latency. Works on merged distributed traces.
  pm top <addr>... [--watch SECS] [--once] [--baseline FILE]
         [--save-baseline FILE] [--json]
      Live dashboard over stats endpoints, redrawn every SECS seconds
      (default 2); --once prints one round and exits; --baseline
      renders run-vs-run deltas against a saved scrape, which
      --save-baseline writes from the first endpoint.
  pm query range <journal-dir>... [--from SECS] [--to SECS] [--stage N] [--json]
  pm query alerts <journal-dir>... [--from SECS] [--to SECS] [--json]
  pm query diff <journal-dir> --baseline <journal-dir> [--json]
      Per-stage samples, replayed alert transitions, or a run-vs-run
      diff from journal directories; --from/--to bound the driver-clock
      seconds, --stage keeps one stage's rows.

--json prints machine-readable output (one compact object per row or
endpoint for top and query). A trace is a JSONL event log. An endpoint
is any process started with PIPEMARE_STATS_ADDR=host:port; it answers
each connection with one binary scrape frame (read it as text with
`pm top --once --json host:port`). A journal directory is what a
process writes when started with --journal <dir> (orchestrator /
workers) or Server::journal_to.
";

/// The arguments after the subcommand words. Flags may appear anywhere
/// among them; what is left once every flag is taken is positional.
struct Args(Vec<String>);

impl Args {
    /// Removes `flag` and its value: `None` when the flag is absent, an
    /// error when its value is missing or does not parse.
    fn opt<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(pos) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if pos + 1 >= self.0.len() {
            return Err(format!("pm: {flag} needs a value"));
        }
        let raw = self.0.remove(pos + 1);
        self.0.remove(pos);
        raw.parse().map(Some).map_err(|_| format!("pm: bad {flag} value: {raw}"))
    }

    /// Removes `flag`, returning whether it was there.
    fn flag(&mut self, flag: &str) -> bool {
        let pos = self.0.iter().position(|a| a == flag);
        pos.map(|pos| self.0.remove(pos)).is_some()
    }

    /// The positional arguments; an unknown flag among them is a usage
    /// error.
    fn positional(self) -> Result<Vec<String>, String> {
        if self.0.iter().any(|a| a.starts_with("--")) {
            return Err(USAGE.to_string());
        }
        Ok(self.0)
    }

    /// Exactly `N` positional arguments, or a usage error.
    fn exactly<const N: usize>(self) -> Result<[String; N], String> {
        self.positional()?.try_into().map_err(|_| USAGE.to_string())
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let tool = args.next();
    let args = Args(args.collect());
    let result = match tool.as_deref() {
        Some("trace") => trace(args),
        Some("top") => top(args),
        Some("query") => query(args),
        _ => Err(USAGE.to_string()),
    };
    match result.and_then(|out| emit(&out)) {
        Ok(_) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `out` to stdout; `false` once the reader has gone away (`pm …
/// | head`), which ends the output quietly.
fn emit(out: &str) -> Result<bool, String> {
    let mut stdout = io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("pm: stdout: {e}")),
    }
}

// ---------------------------------------------------------------------------
// pm trace
// ---------------------------------------------------------------------------

fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    read_jsonl(Path::new(path)).map_err(|e| format!("pm: {path}: {e}"))
}

fn trace(mut args: Args) -> Result<String, String> {
    if args.0.is_empty() {
        return Err(USAGE.to_string());
    }
    let cmd = args.0.remove(0);
    Ok(match cmd.as_str() {
        "summary" => {
            let seg: Option<usize> = args.opt("--seg")?;
            let json = args.flag("--json");
            let [path] = args.exactly()?;
            let events = load(&path)?;
            if json {
                analyze::summary_json(&events, &path, seg).to_pretty() + "\n"
            } else {
                analyze::summary_text(&events, &path, seg)
            }
        }
        "drift" => {
            let windows: usize = args.opt("--windows")?.unwrap_or(8);
            if windows == 0 {
                return Err("pm: --windows must be positive".to_string());
            }
            let [path] = args.exactly()?;
            analyze::drift_text(&load(&path)?, windows, &path)
        }
        "diff" => {
            let [a, b] = args.exactly()?;
            analyze::diff_text(&load(&a)?, &load(&b)?, &a, &b)
        }
        "path" => {
            let json = args.flag("--json");
            let [path, id] = args.exactly()?;
            let id: u64 = id.parse().map_err(|_| format!("pm: bad trace id: {id}"))?;
            let events = load(&path)?;
            if json {
                analyze::path_json(&events, id).to_pretty() + "\n"
            } else {
                analyze::path_text(&events, id)
            }
        }
        _ => return Err(USAGE.to_string()),
    })
}

// ---------------------------------------------------------------------------
// pm top
// ---------------------------------------------------------------------------

struct TopOptions {
    addrs: Vec<String>,
    json: bool,
    baseline: Option<LiveSample>,
}

fn decode(what: &str, bytes: &[u8]) -> Result<Scrape, String> {
    Scrape::decode(bytes).map_err(|e| format!("pm: {what}: bad scrape: {e}"))
}

fn poll(addrs: &[String]) -> Result<Vec<(String, Vec<u8>)>, String> {
    addrs
        .iter()
        .map(|addr| {
            let bytes = scrape_once(addr, Duration::from_secs(2))
                .map_err(|e| format!("pm: {addr}: {e}"))?;
            Ok((addr.clone(), bytes))
        })
        .collect()
}

fn render_round(opts: &TopOptions) -> Result<String, String> {
    let scrapes = poll(&opts.addrs)?
        .into_iter()
        .map(|(addr, bytes)| decode(&addr, &bytes).map(|scrape| (addr, scrape)))
        .collect::<Result<Vec<_>, String>>()?;
    // The first endpoint's latest sample against the baseline's.
    let (label, first) = &scrapes[0];
    let delta = opts.baseline.as_ref().zip(first.latest()).map(|(base, cur)| {
        top::diff(&format!("== pmtop delta: {label} (baseline -> current) =="), base, cur)
    });
    if opts.json {
        let mut out = String::new();
        for (_, scrape) in &scrapes {
            out.push_str(&top::export(scrape).to_compact());
            out.push('\n');
        }
        // With a baseline, append one extra object holding the
        // first endpoint's run-vs-run comparison.
        if let Some((_, json)) = delta {
            out.push_str(&Value::obj().set("baseline_delta", json).to_compact());
            out.push('\n');
        }
        return Ok(out);
    }
    let mut out = top::render_many(&scrapes);
    if let Some((text, _)) = delta {
        out.push('\n');
        out.push_str(&text);
    }
    Ok(out)
}

fn top(mut args: Args) -> Result<String, String> {
    let watch = match args.opt::<f64>("--watch")? {
        None => Duration::from_secs(2),
        Some(secs) => Duration::try_from_secs_f64(secs)
            .ok()
            .filter(|_| secs > 0.0)
            .ok_or_else(|| format!("pm: --watch must be a positive number of seconds: {secs}"))?
            .max(Duration::from_millis(100)),
    };
    let once = args.flag("--once");
    let json = args.flag("--json");
    let baseline: Option<String> = args.opt("--baseline")?;
    let save_baseline: Option<String> = args.opt("--save-baseline")?;
    let addrs = args.positional()?;
    if addrs.is_empty() {
        return Err(USAGE.to_string());
    }
    if let Some(path) = &save_baseline {
        let (addr, bytes) = poll(&addrs)?.swap_remove(0);
        decode(&addr, &bytes)?;
        std::fs::write(path, bytes).map_err(|e| format!("pm: {path}: {e}"))?;
        eprintln!("pm: baseline for {addr} saved to {path}");
        return Ok(String::new());
    }
    let baseline = match &baseline {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("pm: {path}: {e}"))?;
            let latest = decode(path, &bytes)?.samples.pop();
            Some(latest.ok_or_else(|| format!("pm: {path}: baseline holds no sample"))?)
        }
        None => None,
    };
    let opts = TopOptions { addrs, json, baseline };
    if once {
        return render_round(&opts);
    }
    loop {
        let frame = render_round(&opts)?;
        // Clear the screen and home the cursor between frames.
        if !emit(&format!("\x1b[2J\x1b[H{frame}"))? {
            return Ok(String::new());
        }
        std::thread::sleep(watch);
    }
}

// ---------------------------------------------------------------------------
// pm query
// ---------------------------------------------------------------------------

struct QueryOptions {
    dirs: Vec<String>,
    from_us: Option<u64>,
    to_us: Option<u64>,
    stage: Option<u32>,
    baseline: Option<String>,
    json: bool,
}

fn query(mut args: Args) -> Result<String, String> {
    let micros = |secs: Option<f64>| secs.map(|s| (s * 1e6) as u64);
    let from_us = micros(args.opt("--from")?);
    let to_us = micros(args.opt("--to")?);
    let stage = args.opt("--stage")?;
    let baseline = args.opt("--baseline")?;
    let json = args.flag("--json");
    let mut dirs = args.positional()?;
    if dirs.len() < 2 {
        return Err(USAGE.to_string());
    }
    let command = dirs.remove(0);
    let opts = QueryOptions { dirs, from_us, to_us, stage, baseline, json };
    match command.as_str() {
        "range" => query_range(&opts),
        "alerts" => query_alerts(&opts),
        "diff" => query_diff(&opts),
        _ => Err(USAGE.to_string()),
    }
}

fn open_all(dirs: &[String]) -> Result<Vec<JournalReader>, String> {
    dirs.iter().map(|d| JournalReader::open(d).map_err(|e| format!("pm: {d}: {e}"))).collect()
}

fn in_range(opts: &QueryOptions, ts_us: u64) -> bool {
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

fn query_range(opts: &QueryOptions) -> Result<String, String> {
    let readers = open_all(&opts.dirs)?;
    let (merged, truncated) = merge_journals(&readers).map_err(|e| format!("pm: {e}"))?;
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
        return Err("pm: no samples in the given journals".to_string());
    }
    Ok(out)
}

fn query_alerts(opts: &QueryOptions) -> Result<String, String> {
    let readers = open_all(&opts.dirs)?;
    let mut out = String::new();
    let mut transitions = 0usize;
    let mut any_samples = false;
    for reader in &readers {
        // One engine per journal: hysteresis and counter deltas are
        // per-process state, replayed on that journal's own clock.
        let engine = AlertEngine::new(default_rules());
        let (entries, _) = reader.samples().map_err(|e| format!("pm: {e}"))?;
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
        return Err("pm: no samples in the given journals".to_string());
    }
    Ok(out)
}

/// One journal's whole history rolled up into one sample: window-weighted
/// mean util and τ per stage, and the last snapshot's cumulative counters.
fn aggregate(dir: &str) -> Result<LiveSample, String> {
    let reader = JournalReader::open(dir).map_err(|e| format!("pm: {dir}: {e}"))?;
    let (entries, _) = reader.samples().map_err(|e| format!("pm: {e}"))?;
    rollup(entries.iter().map(|e| &e.sample))
        .ok_or_else(|| format!("pm: {dir}: journal holds no samples"))
}

fn query_diff(opts: &QueryOptions) -> Result<String, String> {
    let Some(baseline_dir) = &opts.baseline else {
        return Err("pm: query diff needs --baseline <journal-dir>".to_string());
    };
    let [dir] = opts.dirs.as_slice() else {
        return Err("pm: query diff takes exactly one journal plus --baseline".to_string());
    };
    let (cur, base) = (aggregate(dir)?, aggregate(baseline_dir)?);
    let header = format!("== pmquery diff: {baseline_dir} (base) -> {dir} (cur) ==");
    let (text, json) = top::diff(&header, &base, &cur);
    Ok(if opts.json { json.to_compact() + "\n" } else { text })
}
