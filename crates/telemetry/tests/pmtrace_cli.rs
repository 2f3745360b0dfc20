//! End-to-end tests of `pm trace`: real process, real files.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use pipemare_telemetry::{write_jsonl, SpanKind, TraceEvent, NO_MICROBATCH};

fn pmtrace() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pm"));
    cmd.arg("trace");
    cmd
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmtrace_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn span(kind: SpanKind, stage: u32, mb: u32, ts: u64, dur: u64) -> TraceEvent {
    TraceEvent { kind, track: stage, stage, microbatch: mb, ts_us: ts, dur_us: dur, trace: 0 }
}

fn sample(scale: u64) -> Vec<TraceEvent> {
    vec![
        span(SpanKind::Forward, 0, 0, 0, 10 * scale),
        span(SpanKind::Forward, 1, 0, 10 * scale, 20 * scale),
        span(SpanKind::QueueWaitBkwd, 0, NO_MICROBATCH, 10 * scale, 50 * scale),
        span(SpanKind::Backward, 1, 0, 30 * scale, 30 * scale),
        span(SpanKind::Backward, 0, 0, 60 * scale, 20 * scale),
        span(SpanKind::Flush, 2, 0, 80 * scale, 5 * scale),
    ]
}

#[test]
fn summary_reads_jsonl() {
    let dir = temp_dir("summary");
    let jsonl = dir.join("run.jsonl");
    write_jsonl(&sample(1), &jsonl).unwrap();

    let out = pmtrace().arg("summary").arg(&jsonl).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("bubble fraction"), "{text}");
    assert!(text.contains("wait_fwd_ms"), "{text}");
    assert!(text.contains("tau_fwd meas/nom"), "{text}");
    assert!(text.contains("critical path"), "{text}");

    // --json emits a parseable machine report.
    let out = pmtrace().arg("summary").arg(&jsonl).arg("--json").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let doc = pipemare_telemetry::json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(doc.get("timeline").is_some());
    assert!(doc.get("nominal_bubble_fraction").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drift_and_diff_compare_runs() {
    let dir = temp_dir("diff");
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    write_jsonl(&sample(1), &a).unwrap();
    write_jsonl(&sample(2), &b).unwrap();

    let out = pmtrace().args(["drift", a.to_str().unwrap(), "--windows", "3"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("3 windows"), "{text}");
    assert!(text.contains("nominal tau_fwd"), "{text}");

    let out = pmtrace().args(["diff", a.to_str().unwrap(), b.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("throughput"), "{text}");
    // B is 2× slower end to end: the span delta is +100%.
    assert!(text.contains("+100.0%"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drift_windows_stop_at_the_trace_end() {
    // One 10 µs span and 8 windows of the rounded-up 2 µs width: only
    // five fit, and the last ends exactly at the trace end.
    let dir = temp_dir("drift_end");
    let path = dir.join("one.jsonl");
    write_jsonl(&[span(SpanKind::Forward, 0, 0, 0, 10)], &path).unwrap();
    let out = pmtrace().args(["drift", path.to_str().unwrap(), "--windows", "8"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("(5 windows)"), "{text}");
    assert!(!text.contains("NaN"), "{text}");
    let rows: Vec<&str> = text.lines().filter(|l| l.contains("   [")).collect();
    assert_eq!(rows.len(), 5, "{text}");
    assert!(rows[4].trim_start().starts_with("0.01-0.01"), "{text}");
    assert!(rows.iter().all(|r| r.contains(" 0.000 ")), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_and_missing_files_fail_cleanly() {
    let out = pmtrace().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));

    let out = pmtrace().args(["summary", "/nonexistent/trace.jsonl"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("/nonexistent/trace.jsonl"));

    let out = pmtrace().args(["drift", "x.jsonl", "--windows", "zero"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--windows"));

    // `pm top --watch` refuses what no sleep can last before polling
    // anything (the address is never contacted).
    for watch in ["inf", "NaN", "1e300", "0", "-1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pm"))
            .args(["top", "--watch", watch, "127.0.0.1:9"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--watch {watch}: {out:?}");
        assert!(String::from_utf8(out.stderr).unwrap().contains("--watch"), "{watch}");
    }
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    // One trace through 20 000 spans: a path listing far larger than a
    // 64 KiB pipe buffer, so `pm` is still writing when its reader leaves.
    let dir = temp_dir("closed_stdout");
    let jsonl = dir.join("run.jsonl");
    let events: Vec<_> = (0..20_000)
        .map(|i| TraceEvent { trace: 1, ..span(SpanKind::Forward, i % 4, i, u64::from(i), 1) })
        .collect();
    write_jsonl(&events, &jsonl).unwrap();
    let mut child = pmtrace()
        .arg("path")
        .arg(&jsonl)
        .arg("1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "{status:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
