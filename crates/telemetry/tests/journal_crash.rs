//! Crash-tolerance of the telemetry journal: a writer killed at ANY
//! byte boundary must leave a journal that reopens cleanly, yielding a
//! bit-exact prefix of what was appended — plus `pm query`
//! run for real against such a torn journal.

use std::path::PathBuf;
use std::process::Command;

use proptest::prelude::*;

use pipemare_telemetry::{
    JournalConfig, JournalReader, JournalWriter, LiveSample, MetricValue, MetricsSnapshot,
    StageLive,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmj_crash_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample(seq: u64) -> LiveSample {
    LiveSample {
        seq,
        ts_us: seq * 250_000,
        window_us: 250_000,
        stages: vec![StageLive {
            stage: 0,
            util: 0.5 + seq as f64 * 0.001,
            fwd_us: 40.0 + seq as f64,
            bkwd_us: 80.0,
            recomp_us: f64::NAN,
            wait_us: 10 * seq,
            tau: 3.0,
            tau_pairs: 4,
            events: 8 + seq,
        }],
        metrics: MetricsSnapshot {
            metrics: vec![
                ("steps".to_string(), MetricValue::Counter(seq * 3)),
                ("health.stage0.alpha_margin".to_string(), MetricValue::Gauge(1.4)),
            ],
        },
        sample_cost_us: 7,
    }
}

/// One raw segment holding `n` samples, then the file cut to `keep`
/// bytes — the journal a SIGKILL at that exact byte would leave.
fn write_and_cut(dir: &PathBuf, n: u64, keep_frac: f64) -> (u64, usize) {
    // A huge segment cap keeps everything in one file so the cut point
    // sweeps the whole journal, frame headers included.
    let cfg = JournalConfig { max_segment_bytes: u64::MAX, ..JournalConfig::default() };
    let mut w = JournalWriter::create(dir, "crash", 1, cfg).unwrap();
    // Live-store seqs are 1-based; seq 0 would be dropped as a dupe.
    for s in 1..=n {
        w.append(&sample(s)).unwrap();
    }
    drop(w);
    let seg = dir.join("seg-000000.pmj");
    let full = std::fs::metadata(&seg).unwrap().len();
    let keep = (full as f64 * keep_frac) as u64;
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(keep).unwrap();
    (keep, full as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reopening after a cut at any byte yields a clean bit-exact
    /// prefix: never an error, never a corrupted sample.
    #[test]
    fn any_truncation_point_reopens_to_a_clean_prefix(
        n in 1u64..20,
        keep_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir(&format!("prop_{n}_{}", (keep_frac * 1e6) as u64));
        write_and_cut(&dir, n, keep_frac);
        let reader = JournalReader::open(&dir).unwrap();
        let (entries, _truncated) = reader.samples().unwrap();
        prop_assert!(entries.len() <= n as usize);
        for (i, entry) in entries.iter().enumerate() {
            let want = sample(i as u64 + 1);
            prop_assert_eq!(entry.sample.seq, want.seq);
            prop_assert_eq!(entry.sample.ts_us, want.ts_us);
            let (got, exp) = (&entry.sample.stages[0], &want.stages[0]);
            prop_assert_eq!(got.util.to_bits(), exp.util.to_bits());
            prop_assert_eq!(got.events, exp.events);
            prop_assert_eq!(
                entry.sample.metrics.get("steps").is_some(),
                want.metrics.get("steps").is_some()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A mid-frame cut (a torn tail frame, not a clean boundary) is
/// reported through the truncated-frame counter.
#[test]
fn torn_tail_frame_is_counted() {
    let dir = temp_dir("torn_count");
    let (_, full) = write_and_cut(&dir, 4, 0.0);
    // Re-cut to full-1 byte: the last frame is torn mid-payload.
    let mut w = JournalWriter::create(
        &dir,
        "crash",
        1,
        JournalConfig { max_segment_bytes: u64::MAX, ..JournalConfig::default() },
    )
    .unwrap();
    for s in 1..=4 {
        w.append(&sample(s)).unwrap();
    }
    drop(w);
    let seg = dir.join("seg-000001.pmj");
    let len = std::fs::metadata(&seg).unwrap().len();
    assert!(full > 0);
    std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 1).unwrap();
    let reader = JournalReader::open(&dir).unwrap();
    let (entries, truncated) = reader.samples().unwrap();
    assert_eq!(entries.len(), 3, "three intact frames survive the torn tail");
    assert_eq!(truncated, 1, "the torn tail frame is counted, not fatal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real `pm query` over a torn journal: `range` and `alerts`
/// must both succeed — this is the post-SIGKILL recovery path CI
/// exercises against a live orchestrator run.
#[test]
fn pmquery_reads_a_torn_journal() {
    let dir = temp_dir("pmquery");
    write_and_cut(&dir, 12, 0.6);

    let out =
        Command::new(env!("CARGO_BIN_EXE_pm")).args(["query", "range"]).arg(&dir).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("crash"), "role column expected: {text}");
    assert!(text.contains("raw"), "resolution column expected: {text}");

    let out = Command::new(env!("CARGO_BIN_EXE_pm"))
        .args(["query", "alerts"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // diff against itself: every delta is 0%.
    let out = Command::new(env!("CARGO_BIN_EXE_pm"))
        .args(["query", "diff"])
        .arg(&dir)
        .arg("--baseline")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("+0.0%") || text.contains("0%"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
