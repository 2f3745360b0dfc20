//! `pmtop` — live dashboard over pipemare stats endpoints.
//!
//! Each endpoint is a plain-TCP stats socket (see
//! `pipemare_telemetry::scrape`): connect, read one binary scrape
//! frame, done. Processes expose one when launched with
//! `PIPEMARE_STATS_ADDR` set (stage workers, the orchestrator, the
//! serving example). `--json` prints each scrape as one JSON object;
//! a baseline file holds one raw scrape frame.
//!
//! ```text
//! pmtop <addr>... [--watch SECS] [--once] [--json]
//!       [--baseline FILE] [--save-baseline FILE]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use pipemare_telemetry::json::Value;
use pipemare_telemetry::{scrape_once, top, LiveSample, Scrape};

mod cli;
use cli::{take_flag, take_opt};

const USAGE: &str = "pmtop: live dashboard over pipemare stats endpoints

usage:
  pmtop <addr>... [options]

options:
  --watch SECS          re-poll and redraw every SECS seconds (default 2)
  --once                poll once, print, exit (for scripts / CI)
  --json                print one JSON object per endpoint instead of the table
  --baseline FILE       render run-vs-run deltas against a saved scrape
  --save-baseline FILE  write the first endpoint's scrape to FILE and exit

endpoints are plain TCP stats sockets: any process started with
PIPEMARE_STATS_ADDR=host:port answers each connection with one binary
scrape frame (read it as text with `pmtop --once --json host:port`).
";

struct Options {
    addrs: Vec<String>,
    watch_secs: f64,
    once: bool,
    json: bool,
    baseline: Option<String>,
    save_baseline: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let watch_secs = take_opt(&mut args, "--watch")?.unwrap_or(2.0);
    let opts = Options {
        once: take_flag(&mut args, "--once"),
        json: take_flag(&mut args, "--json"),
        baseline: take_opt(&mut args, "--baseline")?,
        save_baseline: take_opt(&mut args, "--save-baseline")?,
        watch_secs,
        addrs: args,
    };
    if opts.addrs.is_empty() || opts.addrs.iter().any(|a| a.starts_with("--")) {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

fn decode(what: &str, bytes: &[u8]) -> Result<Scrape, String> {
    Scrape::decode(bytes).map_err(|e| format!("pmtop: {what}: bad scrape: {e}"))
}

fn poll(addrs: &[String]) -> Result<Vec<(String, Vec<u8>)>, String> {
    addrs
        .iter()
        .map(|addr| {
            let bytes = scrape_once(addr, Duration::from_secs(2))
                .map_err(|e| format!("pmtop: {addr}: {e}"))?;
            Ok((addr.clone(), bytes))
        })
        .collect()
}

fn render_round(opts: &Options, baseline: Option<&LiveSample>) -> Result<String, String> {
    let scrapes = poll(&opts.addrs)?
        .into_iter()
        .map(|(addr, bytes)| decode(&addr, &bytes).map(|scrape| (addr, scrape)))
        .collect::<Result<Vec<_>, String>>()?;
    // The first endpoint's latest sample against the baseline's.
    let (label, first) = &scrapes[0];
    let delta = baseline.zip(first.latest()).map(|(base, cur)| {
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

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    if let Some(path) = &opts.save_baseline {
        let (addr, bytes) = poll(&opts.addrs)?.swap_remove(0);
        decode(&addr, &bytes)?;
        std::fs::write(path, bytes).map_err(|e| format!("pmtop: {path}: {e}"))?;
        eprintln!("pmtop: baseline for {addr} saved to {path}");
        return Ok(());
    }
    let baseline = match &opts.baseline {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("pmtop: {path}: {e}"))?;
            let latest = decode(path, &bytes)?.samples.pop();
            Some(latest.ok_or_else(|| format!("pmtop: {path}: baseline holds no sample"))?)
        }
        None => None,
    };
    if opts.once {
        print!("{}", render_round(&opts, baseline.as_ref())?);
        return Ok(());
    }
    loop {
        let frame = render_round(&opts, baseline.as_ref())?;
        // Clear the screen and home the cursor between frames.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_secs_f64(opts.watch_secs.max(0.1)));
    }
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
