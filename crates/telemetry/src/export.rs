//! Trace exporters: JSONL event logs, written and read, and Chrome
//! `trace_event` JSON, written only.
//!
//! The JSONL log writes one compact JSON object per event — easy to grep
//! and to post-process incrementally. It is the one trace format read
//! back: files (`read_jsonl`, `pm trace`) and the worker-to-driver wire
//! (`Message::Telemetry`) share one writer, [`events_to_jsonl_string`],
//! and one reader, [`events_from_jsonl_string`]. The Chrome format is
//! an export for viewers only: the JSON-array flavour documented in the
//! Trace Event Format spec and understood by `chrome://tracing` and
//! Perfetto, where complete spans are `"ph": "X"` events with
//! microsecond `ts`/`dur`, instants are `"ph": "i"`, and thread-name
//! metadata events label each track.

use std::io;
use std::path::Path;

use crate::event::{SpanKind, TraceEvent, NO_MICROBATCH, NO_TRACE};
use crate::json::Value;

fn event_args(ev: &TraceEvent) -> Value {
    let mut args = Value::obj().set("stage", ev.stage as u64);
    if ev.microbatch != NO_MICROBATCH {
        args = args.set("microbatch", ev.microbatch as u64);
    }
    if ev.trace != NO_TRACE {
        args = args.set("trace", ev.trace);
    }
    args
}

fn track_label(track: u32, n_stages: u32) -> String {
    if track < n_stages {
        format!("stage {track}")
    } else if track == n_stages {
        "driver".to_string()
    } else {
        format!("track {track}")
    }
}

/// Renders events as a Chrome `trace_event` JSON document.
///
/// `n_stages` controls track labelling: tracks `< n_stages` are named
/// `stage i`, track `n_stages` is named `driver`.
pub fn chrome_trace(events: &[TraceEvent], n_stages: u32) -> Value {
    let mut out = Vec::new();
    // Thread-name metadata first, one per distinct track.
    let mut tracks: Vec<u32> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        out.push(
            Value::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 0u64)
                .set("tid", track as u64)
                .set("args", Value::obj().set("name", track_label(track, n_stages))),
        );
    }
    for ev in events {
        let base = Value::obj()
            .set("name", ev.kind.name())
            .set("cat", "pipeline")
            .set("pid", 0u64)
            .set("tid", ev.track as u64)
            .set("ts", ev.ts_us)
            .set("args", event_args(ev));
        out.push(if ev.kind.is_instant() {
            base.set("ph", "i").set("s", "t")
        } else {
            base.set("ph", "X").set("dur", ev.dur_us)
        });
    }
    Value::Arr(out)
}

/// Writes a Chrome trace to `path` (see [`chrome_trace`]).
///
/// # Errors
///
/// Propagates I/O failures (parent directories are created).
pub fn write_chrome_trace(events: &[TraceEvent], n_stages: u32, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, chrome_trace(events, n_stages).to_compact())
}

/// Renders one event as a single-line JSON object (the JSONL row shape).
pub fn event_to_jsonl(ev: &TraceEvent) -> String {
    let mut obj = Value::obj()
        .set("kind", ev.kind.name())
        .set("track", ev.track as u64)
        .set("stage", ev.stage as u64)
        .set("ts_us", ev.ts_us)
        .set("dur_us", ev.dur_us);
    if ev.microbatch != NO_MICROBATCH {
        obj = obj.set("microbatch", ev.microbatch as u64);
    }
    if ev.trace != NO_TRACE {
        obj = obj.set("trace", ev.trace);
    }
    obj.to_compact()
}

/// Parses one JSONL row (as written by [`event_to_jsonl`]) back into a
/// [`TraceEvent`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub fn event_from_jsonl(line: &str) -> Result<TraceEvent, String> {
    let v = crate::json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let kind_name = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field \"kind\"".to_string())?;
    let kind =
        SpanKind::from_name(kind_name).ok_or_else(|| format!("unknown span kind {kind_name:?}"))?;
    let num = |field: &str| -> Result<u64, String> {
        let n = v
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing numeric field {field:?}"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("field {field:?} = {n} is not a non-negative integer"));
        }
        Ok(n as u64)
    };
    Ok(TraceEvent {
        kind,
        track: num("track")? as u32,
        stage: num("stage")? as u32,
        microbatch: if v.get("microbatch").is_some() {
            num("microbatch")? as u32
        } else {
            NO_MICROBATCH
        },
        ts_us: num("ts_us")?,
        dur_us: num("dur_us")?,
        trace: if v.get("trace").is_some() { num("trace")? } else { NO_TRACE },
    })
}

/// Reads a JSONL event log back into memory (inverse of [`write_jsonl`]):
/// the file's text through [`events_from_jsonl_string`].
///
/// # Errors
///
/// Propagates I/O failures; malformed rows surface as
/// [`io::ErrorKind::InvalidData`] with the line number.
pub fn read_jsonl(path: &Path) -> io::Result<Vec<TraceEvent>> {
    let text = std::fs::read_to_string(path)?;
    events_from_jsonl_string(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Renders events as one in-memory JSONL string (newline-separated rows,
/// trailing newline omitted) — the payload shape remote workers ship
/// their trace batches in, and the body of a [`write_jsonl`] file.
pub fn events_to_jsonl_string(events: &[TraceEvent]) -> String {
    events.iter().map(event_to_jsonl).collect::<Vec<_>>().join("\n")
}

/// Parses a JSONL string (as produced by [`events_to_jsonl_string`] or a
/// JSONL file body) back into events; blank lines are skipped.
///
/// # Errors
///
/// Returns the first malformed row's line number and description.
pub fn events_from_jsonl_string(s: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

/// Merges one remote worker's events into a combined trace: every event
/// is re-tracked onto `track` (track namespacing per worker) and its
/// timestamp shifted by `-offset_us` (the worker-minus-local clock
/// offset, estimated at handshake), clamping at zero so a slightly
/// overestimated offset cannot produce negative times.
pub fn merge_worker_events(
    merged: &mut Vec<TraceEvent>,
    events: &[TraceEvent],
    track: u32,
    offset_us: i64,
) {
    for ev in events {
        let mut ev = *ev;
        ev.track = track;
        ev.ts_us = (ev.ts_us as i64 - offset_us).max(0) as u64;
        merged.push(ev);
    }
}

/// Sorts a merged trace into the `(ts_us, track)` order recorders emit,
/// so downstream summaries see a well-formed timeline.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| (e.ts_us, e.track));
}

/// Writes events as a JSONL log, one event per line: the
/// [`events_to_jsonl_string`] rows plus a trailing newline.
///
/// # Errors
///
/// Propagates I/O failures (parent directories are created).
pub fn write_jsonl(events: &[TraceEvent], path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = events_to_jsonl_string(events);
    if !events.is_empty() {
        out.push('\n');
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;
    use crate::json;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                kind: SpanKind::Inject,
                track: 2,
                stage: 0,
                microbatch: 0,
                ts_us: 1,
                dur_us: 0,
                trace: 1,
            },
            TraceEvent {
                kind: SpanKind::Forward,
                track: 0,
                stage: 0,
                microbatch: 0,
                ts_us: 2,
                dur_us: 10,
                trace: 1,
            },
            TraceEvent {
                kind: SpanKind::Backward,
                track: 1,
                stage: 1,
                microbatch: 0,
                ts_us: 13,
                dur_us: 20,
                trace: NO_TRACE,
            },
            TraceEvent {
                kind: SpanKind::Flush,
                track: 2,
                stage: 0,
                microbatch: NO_MICROBATCH,
                ts_us: 34,
                dur_us: 5,
                trace: NO_TRACE,
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let doc = chrome_trace(&sample_events(), 2);
        let parsed = json::parse(&doc.to_compact()).unwrap();
        let arr = parsed.as_arr().unwrap();
        // 3 distinct tracks → 3 metadata events + 4 real events.
        assert_eq!(arr.len(), 7);
        let phases: Vec<&str> =
            arr.iter().map(|e| e.get("ph").unwrap().as_str().unwrap()).collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3);
        // Spans carry dur; the driver track is labelled.
        let driver_meta = arr
            .iter()
            .find(|e| {
                e.get("ph").unwrap().as_str() == Some("M")
                    && e.get("tid").unwrap().as_f64() == Some(2.0)
            })
            .unwrap();
        assert_eq!(driver_meta.get("args").unwrap().get("name").unwrap().as_str(), Some("driver"));
        // Real events follow the metadata in input order, each carrying
        // its track as `tid`, its start as `ts`, its length as `dur`
        // (spans only) and stage / microbatch / trace in `args`, where
        // absent microbatch and trace ids are left out.
        let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64);
        for (row, ev) in arr[3..].iter().zip(sample_events()) {
            assert_eq!(row.get("name").unwrap().as_str(), Some(ev.kind.name()));
            assert_eq!(num(row, "tid"), Some(ev.track as f64));
            assert_eq!(num(row, "ts"), Some(ev.ts_us as f64));
            let dur = if ev.kind.is_instant() { None } else { Some(ev.dur_us as f64) };
            assert_eq!(num(row, "dur"), dur);
            let args = row.get("args").unwrap();
            assert_eq!(num(args, "stage"), Some(ev.stage as f64));
            let mb = (ev.microbatch != NO_MICROBATCH).then_some(ev.microbatch as f64);
            assert_eq!(num(args, "microbatch"), mb);
            let trace = (ev.trace != NO_TRACE).then_some(ev.trace as f64);
            assert_eq!(num(args, "trace"), trace);
        }
    }

    #[test]
    fn a_16k_event_chrome_trace_parses_in_linear_time() {
        // Parsing used to re-validate the rest of the document for every
        // string character: this 1.9 MB trace took ~40 s in release.
        let events: Vec<TraceEvent> = (0..16_000u64)
            .map(|i| TraceEvent {
                kind: SpanKind::Forward,
                track: (i % 4) as u32,
                stage: (i % 4) as u32,
                microbatch: i as u32,
                ts_us: 10 * i,
                dur_us: 7,
                trace: NO_TRACE,
            })
            .collect();
        let text = chrome_trace(&events, 4).to_compact();
        let start = std::time::Instant::now();
        let parsed = json::parse(&text).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(parsed.as_arr().unwrap().len(), 16_004);
        assert!(secs < 5.0, "parsing {} bytes took {secs:.1} s", text.len());
    }

    #[test]
    fn chrome_trace_ts_is_monotone_per_track() {
        let doc = chrome_trace(&sample_events(), 2);
        let parsed = json::parse(&doc.to_compact()).unwrap();
        let mut per_track: std::collections::HashMap<u64, Vec<f64>> = Default::default();
        for e in parsed.as_arr().unwrap() {
            if e.get("ph").unwrap().as_str() == Some("M") {
                continue;
            }
            let tid = e.get("tid").unwrap().as_f64().unwrap() as u64;
            per_track.entry(tid).or_default().push(e.get("ts").unwrap().as_f64().unwrap());
        }
        for (tid, ts) in per_track {
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "track {tid} ts not monotone: {ts:?}");
        }
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let events = sample_events();
        let lines: Vec<String> = events.iter().map(event_to_jsonl).collect();
        for (line, ev) in lines.iter().zip(&events) {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("kind").unwrap().as_str(), Some(ev.kind.name()));
            assert_eq!(v.get("ts_us").unwrap().as_f64(), Some(ev.ts_us as f64));
        }
        // The flush row (no microbatch, no trace) must omit both fields;
        // the forward row carries its trace id.
        let flush = json::parse(&lines[3]).unwrap();
        assert!(flush.get("microbatch").is_none());
        assert!(flush.get("trace").is_none());
        assert_eq!(json::parse(&lines[1]).unwrap().get("trace").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn jsonl_event_roundtrip_is_exact() {
        for ev in sample_events() {
            let back = event_from_jsonl(&event_to_jsonl(&ev)).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn jsonl_reader_rejects_malformed_rows() {
        assert!(event_from_jsonl("not json").is_err());
        assert!(event_from_jsonl("{\"kind\":\"warp\",\"track\":0}").is_err());
        assert!(event_from_jsonl("{\"kind\":\"forward\",\"track\":0,\"stage\":0}").is_err());
        assert!(event_from_jsonl(
            "{\"kind\":\"forward\",\"track\":-1,\"stage\":0,\"ts_us\":0,\"dur_us\":0}"
        )
        .is_err());
    }

    #[test]
    fn jsonl_file_roundtrip_reproduces_timeline_summary() {
        use crate::summary::PipelineTimelineSummary;

        // A two-stage trace with interleaved backwards, waits, a replay
        // and a driver flush — every field the summary folds over.
        let mut events = sample_events();
        events.extend([
            TraceEvent {
                kind: SpanKind::QueueWaitFwd,
                track: 1,
                stage: 1,
                microbatch: NO_MICROBATCH,
                ts_us: 2,
                dur_us: 9,
                trace: NO_TRACE,
            },
            TraceEvent {
                kind: SpanKind::Recompute,
                track: 0,
                stage: 0,
                microbatch: 0,
                ts_us: 14,
                dur_us: 3,
                trace: 1,
            },
            TraceEvent {
                kind: SpanKind::Backward,
                track: 0,
                stage: 0,
                microbatch: 0,
                ts_us: 20,
                dur_us: 8,
                trace: 1,
            },
        ]);
        let dir = std::env::temp_dir().join("pipemare-telemetry-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        write_jsonl(&events, &path).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, events);
        assert_eq!(
            PipelineTimelineSummary::from_events(&back),
            PipelineTimelineSummary::from_events(&events)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writers_create_parent_dirs() {
        let dir = std::env::temp_dir().join("pipemare-telemetry-test").join("nested");
        let _ = std::fs::remove_dir_all(&dir);
        let trace_path = dir.join("t.trace.json");
        let jsonl_path = dir.join("t.jsonl");
        write_chrome_trace(&sample_events(), 2, &trace_path).unwrap();
        write_jsonl(&sample_events(), &jsonl_path).unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(json::parse(&text).is_ok());
        assert_eq!(std::fs::read_to_string(&jsonl_path).unwrap().lines().count(), 4);
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
