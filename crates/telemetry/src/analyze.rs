//! Trace analysis: the engine behind `pm trace`.
//!
//! Answers the questions the repo used to re-derive ad hoc from raw
//! traces: per-stage utilization and wait breakdown, the measured bubble
//! fraction against the `N/(N+P−1)` throughput model, measured-vs-
//! nominal `τ_fwd`/`τ_recomp` delay tables, straggler / critical-path
//! identification, windowed drift over time, and a structured diff of
//! two runs. Everything here takes a plain `&[TraceEvent]` so it works
//! identically on a flight recorder's whole-run `events()` export, its
//! black-box dumps and merged distributed traces, each read back from
//! JSONL by [`crate::export::read_jsonl`]. Per-stage busy time and τ
//! come from [`crate::summary`]'s one grouping of a trace by stage;
//! drift only chooses the windows it reads.

use pipemare_theory::{delay_slots, gpipe_bubble_fraction, recomp_delay_slots};

use crate::event::{SpanKind, TraceEvent, NO_TRACE};
use crate::json::Value;
use crate::summary::{mean, PipelineTimelineSummary, StageFold};

/// Serving-trace shape: batches, member requests, and throughput,
/// detected from `Coalesce` spans (the serving batcher's signature).
/// Training traces (which carry `Flush` spans) report `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingShape {
    /// Coalesced batches dispatched.
    pub batches: usize,
    /// Member requests admitted (the batcher's per-request waits).
    pub requests: usize,
    /// Requests per second over the trace span.
    pub qps: f64,
}

/// Detects a serving-only trace: no driver `Flush` spans (so the GPipe
/// `N/(N+P−1)` bubble model has no `N` to infer) but `Coalesce` spans
/// from a serving batcher. Returns the serving shape, or `None` for
/// training-shaped (or empty) traces.
pub fn serving_shape(events: &[TraceEvent], span_us: u64) -> Option<ServingShape> {
    if events.iter().any(|e| e.kind == SpanKind::Flush) {
        return None;
    }
    let driver_track =
        events.iter().filter(|e| e.kind == SpanKind::Coalesce).map(|e| e.track).min()?;
    let batches = events.iter().filter(|e| e.kind == SpanKind::Coalesce).count();
    let requests = events
        .iter()
        .filter(|e| e.kind == SpanKind::QueueWaitFwd && e.track == driver_track)
        .count();
    let qps = if span_us == 0 { 0.0 } else { requests as f64 / (span_us as f64 / 1e6) };
    Some(ServingShape { batches, requests, qps })
}

/// Microbatches per minibatch inferred from the driver's `Flush` spans:
/// GPipe traces flush once per minibatch (plus the final drain), so
/// `N = microbatches / (flushes − 1)`; continuous-injection traces have
/// only the final drain flush and behave like one giant minibatch.
fn infer_n_per_minibatch(events: &[TraceEvent], microbatches: usize) -> usize {
    let flushes = events.iter().filter(|e| e.kind == SpanKind::Flush).count();
    if flushes >= 2 && microbatches > 0 {
        (microbatches / (flushes - 1)).max(1)
    } else {
        microbatches.max(1)
    }
}

/// The stage with the most compute time (the pipeline's critical path /
/// straggler: throughput is bound by the busiest stage) and the stage
/// with the most queue-wait time (the most starved), as
/// `(bottleneck, starved)` stage indices. `None` on empty traces.
pub fn stragglers(summary: &PipelineTimelineSummary) -> Option<(u32, u32)> {
    let bottleneck = summary
        .stages
        .iter()
        .max_by_key(|st| st.fwd_us + st.bkwd_us + st.recomp_us)
        .map(|st| st.stage)?;
    let starved = summary.stages.iter().max_by_key(|st| st.wait_us).map(|st| st.stage)?;
    Some((bottleneck, starved))
}

fn fmt_ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1000.0)
}

/// Renders the per-stage utilization / wait-breakdown / measured-vs-
/// nominal τ table for one trace. `seg` is the recompute segment size,
/// if known, used for the nominal `2(S − s mod S)` column.
pub fn summary_text(events: &[TraceEvent], label: &str, seg: Option<usize>) -> String {
    let s = PipelineTimelineSummary::from_events(events);
    let mut out = String::new();
    out.push_str(&format!("== trace summary: {label} ==\n"));
    if s.stages.is_empty() {
        out.push_str("no compute events\n");
        return out;
    }
    let p = s.stages.len();
    let n = infer_n_per_minibatch(events, s.microbatches);
    let nominal_bubble = gpipe_bubble_fraction(p, n);
    out.push_str(&format!(
        "events: {}   stages: {p}   microbatches: {}   span: {} ms\n",
        events.len(),
        s.microbatches,
        fmt_ms(s.span_us),
    ));
    if let Some(shape) = serving_shape(events, s.span_us) {
        // Serving-only trace: no Flush spans, so N (and the GPipe
        // bubble model) would be fabricated. Report throughput instead.
        out.push_str(&format!(
            "serving trace: {} batches   {} requests   {:.1} req/s   \
             (no Flush spans; GPipe bubble model not applicable)\n\n",
            shape.batches, shape.requests, shape.qps,
        ));
    } else {
        out.push_str(&format!(
            "bubble fraction: {:.3} measured   ({:.3} GPipe model (P-1)/(N+P-1) at N = {n})\n\n",
            s.bubble_fraction, nominal_bubble,
        ));
    }
    out.push_str(
        "stage   util    fwd_ms   bkwd_ms  recomp_ms  wait_fwd_ms  wait_bkwd_ms  \
         tau_fwd meas/nom   tau_recomp meas/nom\n",
    );
    for st in &s.stages {
        let nom_fwd = delay_slots(p, st.stage as usize) as f64;
        let nom_recomp = seg.map(|g| recomp_delay_slots(g, st.stage as usize) as f64);
        let recomp_col = if st.measured_recomp_delay_slots > 0.0 {
            match nom_recomp {
                Some(nr) => format!("{:.2}/{nr:.1}", st.measured_recomp_delay_slots),
                None => format!("{:.2}/-", st.measured_recomp_delay_slots),
            }
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:>5}   {:<5.3}   {:>6}   {:>7}   {:>8}   {:>10}   {:>11}   {:>16}   {:>19}\n",
            st.stage,
            st.utilization,
            fmt_ms(st.fwd_us),
            fmt_ms(st.bkwd_us),
            fmt_ms(st.recomp_us),
            fmt_ms(st.wait_fwd_us),
            fmt_ms(st.wait_bkwd_us),
            format!("{:.2}/{nom_fwd:.1}", st.measured_delay_slots),
            recomp_col,
        ));
    }
    if let Some((bottleneck, starved)) = stragglers(&s) {
        let busy = &s.stages[bottleneck as usize];
        out.push_str(&format!(
            "\ncritical path: stage {bottleneck} ({} ms busy, {:.0}% of span)   \
             most starved: stage {starved} ({} ms waiting)\n",
            fmt_ms(busy.fwd_us + busy.bkwd_us + busy.recomp_us),
            if s.span_us == 0 {
                0.0
            } else {
                100.0 * (busy.fwd_us + busy.bkwd_us + busy.recomp_us) as f64 / s.span_us as f64
            },
            fmt_ms(s.stages[starved as usize].wait_us),
        ));
    }
    out
}

/// JSON rendering of [`summary_text`]'s content (the timeline summary
/// plus the nominal models and straggler identification).
pub fn summary_json(events: &[TraceEvent], label: &str, seg: Option<usize>) -> Value {
    let s = PipelineTimelineSummary::from_events(events);
    let mut obj = Value::obj().set("label", label).set("timeline", s.to_json());
    if !s.stages.is_empty() {
        let p = s.stages.len();
        let n = infer_n_per_minibatch(events, s.microbatches);
        let nominal: Vec<Value> = (0..p)
            .map(|st| {
                let mut row =
                    Value::obj().set("stage", st as u64).set("tau_fwd", delay_slots(p, st) as f64);
                if let Some(g) = seg {
                    row = row.set("tau_recomp", recomp_delay_slots(g, st) as f64);
                }
                row
            })
            .collect();
        if let Some(shape) = serving_shape(events, s.span_us) {
            // Serving-only: the inferred N and the GPipe bubble model
            // would be bogus — report the request-level shape instead.
            obj = obj.set(
                "serving",
                Value::obj()
                    .set("batches", shape.batches as u64)
                    .set("requests", shape.requests as u64)
                    .set("qps", shape.qps),
            );
        } else {
            obj = obj
                .set("microbatches_per_minibatch", n as u64)
                .set("nominal_bubble_fraction", gpipe_bubble_fraction(p, n));
        }
        obj = obj.set("nominal_delays", Value::Arr(nominal));
        if let Some((bottleneck, starved)) = stragglers(&s) {
            obj = obj
                .set("critical_path_stage", bottleneck as u64)
                .set("most_starved_stage", starved as u64);
        }
    }
    obj
}

/// Per-window measured statistics for [`drift_text`].
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// Window start/end, microseconds since trace start.
    pub t0_us: u64,
    /// Window end.
    pub t1_us: u64,
    /// `1 −` mean per-stage busy fraction inside the window.
    pub bubble_fraction: f64,
    /// Mean measured forward delay (slots) per stage, for microbatches
    /// whose forward starts inside the window; NaN when no sample.
    pub tau_fwd: Vec<f64>,
    /// Mean measured recompute delay (slots) per stage; NaN when no
    /// sample.
    pub tau_recomp: Vec<f64>,
}

/// Splits the trace span into windows of `⌈span / n_windows⌉` µs and
/// measures each: busy time (clipped to window overlap, so straddling
/// spans are attributed exactly) and the measured τ of the microbatches
/// whose forward / replay starts fall inside the window, paired with
/// backward starts anywhere in the trace. The windows tile the span
/// exactly: the last is cut at the trace end, and when the rounded-up
/// width covers the span in fewer than `n_windows` windows, only those
/// are returned. This is how τ *drift over time* becomes visible — a
/// stage whose measured delay walks away from the nominal `2(P−1−s)+1`
/// shows up window by window.
pub fn windowed_stats(events: &[TraceEvent], n_windows: usize) -> Vec<WindowStats> {
    assert!(n_windows > 0);
    let fold = StageFold::new(events, 0, |_| true);
    if fold.stages.is_empty() {
        return Vec::new();
    }
    let start = fold.start_us;
    let end = fold.end_us.max(start + 1);
    let width = (end - start).div_ceil(n_windows as u64).max(1);
    let tau = |samples: Vec<f64>| mean(&samples).unwrap_or(f64::NAN);
    (0..n_windows as u64)
        .map(|w| start + w * width)
        .take_while(|&t0| t0 < end)
        .map(|t0| {
            let t1 = (t0 + width).min(end);
            let span = (t1 - t0) as f64;
            let mean_util =
                fold.stages.iter().map(|st| st.busy_us(t0, t1) as f64 / span).sum::<f64>()
                    / fold.stages.len() as f64;
            let in_window = |e: &TraceEvent| e.ts_us >= t0 && e.ts_us < t1;
            WindowStats {
                t0_us: t0 - start,
                t1_us: t1 - start,
                bubble_fraction: 1.0 - mean_util,
                tau_fwd: fold.stages.iter().map(|st| tau(st.tau_fwd(in_window))).collect(),
                tau_recomp: fold.stages.iter().map(|st| tau(st.tau_recomp(in_window))).collect(),
            }
        })
        .collect()
}

/// Renders the windowed bubble-fraction and per-stage measured-τ drift
/// table (vs the nominal `2(P−1−s)+1` in the header).
pub fn drift_text(events: &[TraceEvent], n_windows: usize, label: &str) -> String {
    let windows = windowed_stats(events, n_windows);
    let mut out = String::new();
    out.push_str(&format!("== tau/bubble drift: {label} ({} windows) ==\n", windows.len()));
    let Some(first) = windows.first() else {
        out.push_str("no compute events\n");
        return out;
    };
    let p = first.tau_fwd.len();
    let noms: Vec<String> = (0..p).map(|s| format!("{:.0}", delay_slots(p, s) as f64)).collect();
    out.push_str(&format!("nominal tau_fwd per stage (slots): [{}]\n\n", noms.join(", ")));
    out.push_str("window          bubble   tau_fwd per stage (slots)\n");
    for w in &windows {
        let taus: Vec<String> = w
            .tau_fwd
            .iter()
            .map(|t| if t.is_finite() { format!("{t:.2}") } else { "-".to_string() })
            .collect();
        let has_recomp = w.tau_recomp.iter().any(|t| t.is_finite());
        let recomp = if has_recomp {
            let rs: Vec<String> = w
                .tau_recomp
                .iter()
                .map(|t| if t.is_finite() { format!("{t:.2}") } else { "-".to_string() })
                .collect();
            format!("   tau_recomp: [{}]", rs.join(", "))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{:>6}-{:<6}   {:<6.3}   [{}]{recomp}\n",
            fmt_ms(w.t0_us),
            fmt_ms(w.t1_us),
            w.bubble_fraction,
            taus.join(", "),
        ));
    }
    out
}

/// The change from `a` to `b` as a signed percentage: `0%` when either
/// side is not finite or both are zero, `new` from zero.
pub(crate) fn pct_delta(a: f64, b: f64) -> String {
    if !a.is_finite() || !b.is_finite() || (a == 0.0 && b == 0.0) {
        "0%".to_string()
    } else if a == 0.0 {
        "new".to_string()
    } else {
        format!("{:+.1}%", 100.0 * (b - a) / a)
    }
}

/// Compares two runs stage by stage: utilization, wait, measured delays,
/// bubble fraction, and throughput — e.g. recompute on vs off, or two
/// builds of the same pipeline.
pub fn diff_text(
    a_events: &[TraceEvent],
    b_events: &[TraceEvent],
    a_label: &str,
    b_label: &str,
) -> String {
    let a = PipelineTimelineSummary::from_events(a_events);
    let b = PipelineTimelineSummary::from_events(b_events);
    let mut out = String::new();
    out.push_str(&format!("== trace diff: A = {a_label}   B = {b_label} ==\n"));
    let thr = |s: &PipelineTimelineSummary| {
        if s.span_us == 0 {
            0.0
        } else {
            s.microbatches as f64 / (s.span_us as f64 / 1e6)
        }
    };
    out.push_str(&format!(
        "span:        A {} ms   B {} ms   ({})\n",
        fmt_ms(a.span_us),
        fmt_ms(b.span_us),
        pct_delta(a.span_us as f64, b.span_us as f64),
    ));
    out.push_str(&format!(
        "throughput:  A {:.1} mb/s   B {:.1} mb/s   ({})\n",
        thr(&a),
        thr(&b),
        pct_delta(thr(&a), thr(&b)),
    ));
    out.push_str(&format!(
        "bubble:      A {:.3}   B {:.3}\n\n",
        a.bubble_fraction, b.bubble_fraction,
    ));
    out.push_str("stage   util A->B        wait_ms A->B        tau_fwd A->B     tau_recomp A->B\n");
    let stages = a.stages.len().max(b.stages.len());
    for s in 0..stages {
        let sa = a.stages.get(s);
        let sb = b.stages.get(s);
        let util = |st: Option<&crate::summary::StageTimeline>| {
            st.map(|x| format!("{:.3}", x.utilization)).unwrap_or_else(|| "-".into())
        };
        let wait = |st: Option<&crate::summary::StageTimeline>| {
            st.map(|x| fmt_ms(x.wait_us)).unwrap_or_else(|| "-".into())
        };
        let tau = |st: Option<&crate::summary::StageTimeline>| {
            st.map(|x| format!("{:.2}", x.measured_delay_slots)).unwrap_or_else(|| "-".into())
        };
        let taur = |st: Option<&crate::summary::StageTimeline>| {
            st.map(|x| {
                if x.measured_recomp_delay_slots > 0.0 {
                    format!("{:.2}", x.measured_recomp_delay_slots)
                } else {
                    "-".into()
                }
            })
            .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "{s:>5}   {:>6} -> {:<6}   {:>7} -> {:<7}   {:>5} -> {:<5}   {:>5} -> {:<5}\n",
            util(sa),
            util(sb),
            wait(sa),
            wait(sb),
            tau(sa),
            tau(sb),
            taur(sa),
            taur(sb),
        ));
    }
    out
}

/// Collects the causal span chain of one trace id, in time order.
///
/// Training traces stamp every hop (inject, per-stage forward/backward,
/// wire shards) with the microbatch's trace id, so a plain filter
/// suffices. Serving traces stamp the per-request admission wait; the
/// batch the request rode in is joined structurally — the wait ends at
/// the batch's dispatch instant (the `Coalesce` span's end, recorded
/// from the same clock read), and the engine's per-stage `Forward`
/// spans share the batch id in their `microbatch` field.
pub fn trace_path(events: &[TraceEvent], trace_id: u64) -> Vec<TraceEvent> {
    let mut own: Vec<TraceEvent> =
        events.iter().filter(|e| e.trace == trace_id && trace_id != NO_TRACE).copied().collect();
    let waits: Vec<TraceEvent> =
        own.iter().filter(|e| e.kind == SpanKind::QueueWaitFwd).copied().collect();
    for w in &waits {
        let Some(c) = events.iter().find(|c| {
            c.kind == SpanKind::Coalesce
                && c.track == w.track
                && c.ts_us + c.dur_us == w.ts_us + w.dur_us
        }) else {
            continue;
        };
        own.push(*c);
        own.extend(events.iter().filter(|f| {
            f.kind == SpanKind::Forward
                && f.trace != trace_id
                && f.microbatch == c.microbatch
                && f.ts_us >= c.ts_us
        }));
    }
    own.sort_by_key(|e| (e.ts_us, e.track, e.kind as u32));
    own.dedup();
    own
}

/// Renders the cross-process critical path of one trace id: each hop
/// with its track, stage, duration, and the gap since the previous hop
/// ended, plus end-to-end latency and busy/gap totals.
pub fn path_text(events: &[TraceEvent], trace_id: u64) -> String {
    let chain = trace_path(events, trace_id);
    let mut out = String::new();
    out.push_str(&format!("== trace path: id {trace_id} ==\n"));
    if chain.is_empty() {
        out.push_str("no events carry this trace id\n");
        return out;
    }
    let t0 = chain[0].ts_us;
    let end = chain.iter().map(|e| e.ts_us + e.dur_us).max().unwrap();
    let busy: u64 = chain.iter().map(|e| e.dur_us).sum();
    out.push_str(&format!(
        "hops: {}   latency: {} ms   busy: {} ms\n\n",
        chain.len(),
        fmt_ms(end - t0),
        fmt_ms(busy),
    ));
    out.push_str("    ts_ms  track  stage  mb      kind             dur_ms    gap_ms\n");
    let mut prev_end = t0;
    for e in &chain {
        let gap = e.ts_us.saturating_sub(prev_end);
        out.push_str(&format!(
            "{:>9}  {:>5}  {:>5}  {:>6}  {:<15}  {:>7}  {:>8}\n",
            fmt_ms(e.ts_us - t0),
            e.track,
            e.stage,
            if e.microbatch == crate::event::NO_MICROBATCH {
                "-".to_string()
            } else {
                e.microbatch.to_string()
            },
            format!("{:?}", e.kind),
            fmt_ms(e.dur_us),
            fmt_ms(gap),
        ));
        prev_end = prev_end.max(e.ts_us + e.dur_us);
    }
    out
}

/// JSON rendering of [`path_text`]: the hop list plus latency totals.
pub fn path_json(events: &[TraceEvent], trace_id: u64) -> Value {
    let chain = trace_path(events, trace_id);
    let mut obj = Value::obj().set("trace", trace_id).set("hops", chain.len() as u64);
    if let (Some(first), Some(end)) =
        (chain.first(), chain.iter().map(|e| e.ts_us + e.dur_us).max())
    {
        obj = obj
            .set("latency_us", end - first.ts_us)
            .set("busy_us", chain.iter().map(|e| e.dur_us).sum::<u64>());
    }
    let rows: Vec<Value> = chain
        .iter()
        .map(|e| {
            Value::obj()
                .set("kind", format!("{:?}", e.kind))
                .set("track", e.track as u64)
                .set("stage", e.stage as u64)
                .set("microbatch", e.microbatch as u64)
                .set("ts_us", e.ts_us)
                .set("dur_us", e.dur_us)
        })
        .collect();
    obj.set("path", Value::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_MICROBATCH;

    fn span(kind: SpanKind, stage: u32, mb: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent { kind, track: stage, stage, microbatch: mb, ts_us: ts, dur_us: dur, trace: 0 }
    }

    /// A 2-stage trace: stage 1 is the bottleneck (3× the compute),
    /// stage 0 waits on the backward queue.
    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            span(SpanKind::Forward, 0, 0, 0, 10),
            span(SpanKind::Forward, 1, 0, 10, 30),
            span(SpanKind::QueueWaitBkwd, 0, NO_MICROBATCH, 10, 60),
            span(SpanKind::Backward, 1, 0, 40, 30),
            span(SpanKind::Backward, 0, 0, 70, 20),
            span(SpanKind::Flush, 2, 0, 90, 5),
        ]
    }

    #[test]
    fn summary_identifies_stragglers_and_waits() {
        let s = PipelineTimelineSummary::from_events(&sample_trace());
        assert_eq!(stragglers(&s), Some((1, 0)));
        let text = summary_text(&sample_trace(), "unit", None);
        assert!(text.contains("critical path: stage 1"), "{text}");
        assert!(text.contains("most starved: stage 0"), "{text}");
        assert!(text.contains("bubble fraction"), "{text}");
        // Wait breakdown columns are present.
        assert!(text.contains("wait_fwd_ms"), "{text}");
        assert!(text.contains("wait_bkwd_ms"), "{text}");
        // Measured-vs-nominal τ: stage 0 of P = 2 is nominally 3 slots.
        assert!(text.contains("/3.0"), "{text}");
    }

    #[test]
    fn summary_json_carries_nominal_models() {
        let j = summary_json(&sample_trace(), "unit", Some(2));
        assert_eq!(j.get("critical_path_stage").and_then(Value::as_f64), Some(1.0));
        let noms = j.get("nominal_delays").unwrap().as_arr().unwrap();
        assert_eq!(noms.len(), 2);
        assert_eq!(noms[0].get("tau_fwd").and_then(Value::as_f64), Some(3.0));
        assert_eq!(noms[0].get("tau_recomp").and_then(Value::as_f64), Some(4.0));
        assert!(j.get("nominal_bubble_fraction").is_some());
        // Empty traces degrade gracefully.
        let empty = summary_json(&[], "none", None);
        assert!(empty.get("nominal_delays").is_none());
        assert!(summary_text(&[], "none", None).contains("no compute events"));
    }

    #[test]
    fn windowed_stats_clip_straddling_spans() {
        // One stage busy 0..40 of an 80 µs span: window 1 fully busy,
        // window 2 fully idle.
        let events = vec![
            span(SpanKind::Forward, 0, 0, 0, 40),
            span(SpanKind::Backward, 0, 0, 40, 0),
            span(SpanKind::Inject, 0, 1, 80, 0),
        ];
        let w = windowed_stats(&events, 2);
        assert_eq!(w.len(), 2);
        assert!((w[0].bubble_fraction - 0.0).abs() < 1e-9, "{w:?}");
        assert!((w[1].bubble_fraction - 1.0).abs() < 1e-9, "{w:?}");
        // The forward starting in window 0 gets its τ sample there.
        assert!((w[0].tau_fwd[0] - 1.0).abs() < 1e-9);
        assert!(w[1].tau_fwd[0].is_nan());
        let text = drift_text(&events, 2, "unit");
        assert!(text.contains("nominal tau_fwd"), "{text}");
        assert!(drift_text(&[], 2, "none").contains("no compute events"));
    }

    #[test]
    fn drift_windows_tile_the_span_when_the_count_does_not_divide_it() {
        // One 10 µs span in 8 windows: the rounded-up width is 2 µs, so
        // five windows cover the span and the other three would start at
        // or past its end.
        let events = vec![span(SpanKind::Forward, 0, 0, 0, 10)];
        let w = windowed_stats(&events, 8);
        assert_eq!(w.len(), 5, "{w:?}");
        assert_eq!((w[0].t0_us, w[4].t1_us), (0, 10), "{w:?}");
        assert!(w.windows(2).all(|p| p[0].t1_us == p[1].t0_us), "{w:?}");
        assert!(w.iter().all(|x| x.bubble_fraction == 0.0), "{w:?}");
        let text = drift_text(&events, 8, "unit");
        assert!(text.contains("(5 windows)"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    fn traced(
        kind: SpanKind,
        track: u32,
        stage: u32,
        mb: u32,
        ts: u64,
        dur: u64,
        trace: u64,
    ) -> TraceEvent {
        TraceEvent { kind, track, stage, microbatch: mb, ts_us: ts, dur_us: dur, trace }
    }

    /// A serving trace: two requests coalesced into batch 0, run through
    /// a 2-stage engine. No Flush spans anywhere.
    fn serving_trace() -> Vec<TraceEvent> {
        vec![
            traced(SpanKind::QueueWaitFwd, 2, 0, 7, 0, 10, 11),
            traced(SpanKind::QueueWaitFwd, 2, 0, 8, 2, 8, 12),
            traced(SpanKind::Coalesce, 2, 0, 0, 0, 10, 0),
            traced(SpanKind::Forward, 0, 0, 0, 10, 5, 0),
            traced(SpanKind::Forward, 1, 1, 0, 15, 5, 0),
        ]
    }

    #[test]
    fn serving_only_summary_reports_requests_not_bubble() {
        let events = serving_trace();
        let s = PipelineTimelineSummary::from_events(&events);
        assert_eq!(
            serving_shape(&events, s.span_us),
            Some(ServingShape { batches: 1, requests: 2, qps: 2.0 / (s.span_us as f64 / 1e6) })
        );
        let text = summary_text(&events, "serve", None);
        assert!(text.contains("serving trace: 1 batches   2 requests"), "{text}");
        assert!(!text.contains("GPipe model"), "{text}");
        let j = summary_json(&events, "serve", None);
        assert!(j.get("nominal_bubble_fraction").is_none());
        assert_eq!(j.get("serving").unwrap().get("requests").and_then(Value::as_f64), Some(2.0));
        // Training traces keep the bubble line.
        assert!(summary_text(&sample_trace(), "train", None).contains("GPipe model"));
        assert_eq!(serving_shape(&sample_trace(), 100), None);
    }

    #[test]
    fn trace_path_joins_request_to_its_batch() {
        let events = serving_trace();
        let chain = trace_path(&events, 11);
        let kinds: Vec<SpanKind> = chain.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::QueueWaitFwd, SpanKind::Coalesce, SpanKind::Forward, SpanKind::Forward],
            "{chain:?}"
        );
        let text = path_text(&events, 11);
        assert!(text.contains("hops: 4"), "{text}");
        assert!(text.contains("latency: 0.02 ms"), "{text}");
        let j = path_json(&events, 11);
        assert_eq!(j.get("hops").and_then(Value::as_f64), Some(4.0));
        assert_eq!(j.get("latency_us").and_then(Value::as_f64), Some(20.0));
        // Unknown ids degrade gracefully, and NO_TRACE never matches.
        assert!(path_text(&events, 99).contains("no events carry"));
        assert!(trace_path(&events, NO_TRACE).is_empty());
    }

    #[test]
    fn trace_path_filters_training_hops_by_id() {
        let events = vec![
            traced(SpanKind::Inject, 2, 0, 0, 0, 1, 5),
            traced(SpanKind::Forward, 0, 0, 0, 1, 4, 5),
            traced(SpanKind::Forward, 0, 0, 1, 5, 4, 6),
            traced(SpanKind::Forward, 1, 1, 0, 5, 4, 5),
            traced(SpanKind::Backward, 1, 1, 0, 9, 4, 5),
            traced(SpanKind::Backward, 0, 0, 0, 13, 4, 5),
        ];
        let chain = trace_path(&events, 5);
        assert_eq!(chain.len(), 5);
        assert!(chain.iter().all(|e| e.trace == 5));
        // Sorted by time even though hops interleave across tracks.
        assert!(chain.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn diff_reports_per_stage_deltas() {
        let a = sample_trace();
        // B: stage 1 twice as slow.
        let b = vec![
            span(SpanKind::Forward, 0, 0, 0, 10),
            span(SpanKind::Forward, 1, 0, 10, 60),
            span(SpanKind::Backward, 1, 0, 70, 60),
            span(SpanKind::Backward, 0, 0, 130, 20),
        ];
        let text = diff_text(&a, &b, "fast", "slow");
        assert!(text.contains("A = fast"), "{text}");
        assert!(text.contains("throughput"), "{text}");
        assert!(text.contains("stage"), "{text}");
        // Span grew: the delta is positive.
        assert!(text.contains("+"), "{text}");
    }
}
