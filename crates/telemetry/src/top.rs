//! The `pm top` render engine: decoded [`Scrape`]s become the per-stage
//! dashboard ([`render`]), and two [`LiveSample`]s a run-vs-run [`diff`]
//! (`pm top --baseline`, `pm query diff`). Rendering is pure, so it is
//! testable without sockets. The columns are what the PipeMare analysis
//! watches live: per-stage utilization, compute-phase means, measured vs
//! nominal τ, the health monitor's α-margin, serving queue depth and
//! shed counters, and wire throughput.
//!
//! JSON is only an export edge here: [`export`] (`pm top --json`) and
//! [`stage_json`], the one JSON stage row, shared by `pm query range`.

use pipemare_theory::delay_slots;

use crate::analyze::pct_delta;
use crate::json::Value;
use crate::metrics::MetricValue;
use crate::scrape::Scrape;
use crate::store::{LiveSample, StageLive};

/// A number at `prec` decimals, or `-` when it is not finite.
pub fn fmt(v: f64, prec: usize) -> String {
    if v.is_finite() {
        format!("{v:.prec$}")
    } else {
        "-".to_string()
    }
}

fn fmt_bytes(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v >= 1e9 {
        format!("{:.2} GB", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} MB", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} KB", v / 1e3)
    } else {
        format!("{v:.0} B")
    }
}

/// Stage `stage`'s nominal forward delay in slots on an `n_stages`
/// pipeline; NaN for a stage outside it.
pub fn tau_nominal(n_stages: usize, stage: u32) -> f64 {
    if (stage as usize) < n_stages {
        delay_slots(n_stages, stage as usize) as f64
    } else {
        f64::NAN
    }
}

/// A counter's or gauge's value; NaN for a histogram or a missing name.
fn metric(sample: &LiveSample, name: &str) -> f64 {
    match sample.metrics.get(name) {
        Some(MetricValue::Counter(c)) => *c as f64,
        Some(MetricValue::Gauge(g)) => *g,
        _ => f64::NAN,
    }
}

/// Renders one endpoint's scrape as the live dashboard block: header,
/// per-stage table, and the serving / wire lines when those metrics are
/// present.
pub fn render(label: &str, scrape: &Scrape) -> String {
    let latest = scrape.latest();
    let field = |f: fn(&LiveSample) -> u64| latest.map_or(0, f) as f64;
    let mut out = format!(
        "== {label}   role {}   seq {}   window {} ms   sample cost {} µs (max {}) ==\n",
        scrape.role,
        fmt(field(|s| s.seq), 0),
        fmt(field(|s| s.window_us) / 1000.0, 1),
        fmt(field(|s| s.sample_cost_us), 0),
        fmt(scrape.max_sample_cost_us as f64, 0),
    );
    let Some(sample) = latest else {
        out.push_str("(no sample yet — ticker has not fired)\n");
        out.push_str(&alerts_pane(scrape));
        return out;
    };
    if !sample.stages.is_empty() {
        out.push_str(
            "stage   util%   fwd_µs   bkwd_µs  recomp_µs   wait_µs   \
             tau meas/nom   alpha_margin\n",
        );
        for st in &sample.stages {
            let margin = metric(sample, &format!("health.stage{}.alpha_margin", st.stage));
            out.push_str(&format!(
                "{:>5}   {:>5}   {:>6}   {:>7}   {:>8}   {:>7}   {:>12}   {:>12}\n",
                st.stage,
                fmt(100.0 * st.util, 1),
                fmt(st.fwd_us, 1),
                fmt(st.bkwd_us, 1),
                fmt(st.recomp_us, 1),
                st.wait_us,
                format!("{}/{}", fmt(st.tau, 2), fmt(tau_nominal(scrape.n_stages, st.stage), 1)),
                if margin.is_finite() { format!("{margin:+.3}") } else { "-".to_string() },
            ));
        }
    }
    out.push_str(&serve_line(scrape, sample));
    out.push_str(&wire_line(sample));
    out.push_str(&alerts_pane(scrape));
    out
}

/// The ALERTS pane; empty when nothing is firing.
fn alerts_pane(scrape: &Scrape) -> String {
    if scrape.alerts.is_empty() {
        return String::new();
    }
    let mut out = format!("ALERTS ({} firing)\n", scrape.alerts.len());
    for a in &scrape.alerts {
        let scope = if a.label.is_empty() { String::new() } else { format!(" [{}]", a.label) };
        out.push_str(&format!(
            "  {:<8} {}{scope}   value {}   since {} s\n",
            a.severity.name().to_uppercase(),
            a.rule,
            fmt(a.value, 3),
            fmt(a.since_ts_us as f64 / 1e6, 1),
        ));
    }
    out
}

/// The serving line (queue depth, accepted/shed with per-window deltas,
/// batch-size p50); empty when the endpoint exports no `serve.*`
/// metrics.
fn serve_line(scrape: &Scrape, sample: &LiveSample) -> String {
    let depth = metric(sample, "serve.queue_depth");
    let accepted = metric(sample, "serve.accepted");
    if !depth.is_finite() && !accepted.is_finite() {
        return String::new();
    }
    let window_s = sample.window_us as f64 / 1e6;
    let shed_rate = match scrape.counter_delta("serve.shed") {
        Some(shed) if window_s > 0.0 => format!("{:.1}/s", shed as f64 / window_s),
        _ => "-".to_string(),
    };
    let batch_p50 = match sample.metrics.get("serve.batch_rows") {
        Some(MetricValue::Histogram(h)) => h.quantile(0.5),
        _ => f64::NAN,
    };
    format!(
        "serve: queue depth {}   accepted {} (+{})   shed {} ({})   batch rows p50 {}\n",
        fmt(depth, 0),
        fmt(accepted, 0),
        fmt(scrape.counter_delta("serve.accepted").map_or(f64::NAN, |d| d as f64), 0),
        fmt(metric(sample, "serve.shed"), 0),
        shed_rate,
        fmt(batch_p50, 1),
    )
}

/// The wire-throughput line from `wire.*` gauges; empty when absent.
fn wire_line(sample: &LiveSample) -> String {
    let sum = |suffix: &str| {
        let wire = sample.metrics.metrics.iter();
        wire.filter(|(name, _)| name.starts_with("wire.") && name.ends_with(suffix))
            .fold(None, |total: Option<f64>, (name, _)| {
                Some(total.unwrap_or(0.0) + metric(sample, name))
            })
            .unwrap_or(f64::NAN)
    };
    let (txb, rxb) = (sum(".tx_bytes"), sum(".rx_bytes"));
    if !txb.is_finite() && !rxb.is_finite() {
        return String::new();
    }
    format!(
        "wire: tx {} ({} frames)   rx {} ({} frames)\n",
        fmt_bytes(txb),
        fmt(sum(".tx_frames"), 0),
        fmt_bytes(rxb),
        fmt(sum(".rx_frames"), 0),
    )
}

/// Renders several endpoints' scrapes, one block each.
pub fn render_many(scrapes: &[(String, Scrape)]) -> String {
    let mut out = String::new();
    for (i, (label, scrape)) in scrapes.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render(label, scrape));
    }
    out
}

/// The one JSON form of a stage row: `row` (the caller's leading
/// fields) extended with the stage's aggregates and its nominal τ on an
/// `n_stages` pipeline.
pub fn stage_json(row: Value, st: &StageLive, n_stages: usize) -> Value {
    row.set("stage", st.stage as u64)
        .set("util", st.util)
        .set("fwd_us", st.fwd_us)
        .set("bkwd_us", st.bkwd_us)
        .set("recomp_us", st.recomp_us)
        .set("wait_us", st.wait_us)
        .set("tau", st.tau)
        .set("tau_nominal", tau_nominal(n_stages, st.stage))
        .set("tau_pairs", st.tau_pairs as u64)
        .set("events", st.events)
}

/// `pm top --json`'s object for one scrape: the identity, the latest
/// sample's stage rows, metrics and counter deltas, and the firing
/// alerts (schema in DESIGN §6.9).
pub fn export(scrape: &Scrape) -> Value {
    let latest = scrape.latest();
    let field = |f: fn(&LiveSample) -> u64| latest.map_or(0, f);
    let mut obj = Value::obj()
        .set("role", scrape.role.as_str())
        .set("n_stages", scrape.n_stages as u64)
        .set("seq", field(|s| s.seq))
        .set("ts_us", field(|s| s.ts_us))
        .set("window_us", field(|s| s.window_us))
        .set("sample_cost_us", field(|s| s.sample_cost_us))
        .set("max_sample_cost_us", scrape.max_sample_cost_us);
    let stages = latest.map_or(&[][..], |s| &s.stages[..]);
    obj = obj.set(
        "stages",
        Value::Arr(stages.iter().map(|st| stage_json(Value::obj(), st, scrape.n_stages)).collect()),
    );
    if let Some(sample) = latest {
        let mut deltas = Value::obj();
        for (name, _) in &sample.metrics.metrics {
            if let Some(d) = scrape.counter_delta(name) {
                deltas = deltas.set(name, d);
            }
        }
        obj = obj.set("metrics", sample.metrics.to_json()).set("counters_delta", deltas);
    }
    let alerts = scrape.alerts.iter().map(|a| {
        Value::obj()
            .set("rule", a.rule.as_str())
            .set("label", a.label.as_str())
            .set("severity", a.severity.name())
            .set("since_ts_us", a.since_ts_us)
            .set("value", a.value)
    });
    obj.set("alerts", Value::Arr(alerts.collect()))
}

/// Run-vs-run diff of two samples: per-stage utilization and τ with
/// their percentage changes, and every counter both sides hold as a
/// counter. Returns the text block (opened by `header`) and the same
/// comparison as JSON; `pm top --baseline` feeds it two latest samples,
/// `pm query diff` two whole-journal rollups.
pub fn diff(header: &str, base: &LiveSample, cur: &LiveSample) -> (String, Value) {
    let mut text = format!("{header}\n");
    let n_stages = cur.stages.len().max(base.stages.len());
    let means = |run: &LiveSample, i: usize| {
        run.stages.get(i).map_or((f64::NAN, f64::NAN), |st| (st.util, st.tau))
    };
    let mut stages = Vec::with_capacity(n_stages);
    if n_stages > 0 {
        text.push_str("stage   util base->cur        tau base->cur\n");
    }
    for i in 0..n_stages {
        let ((bu, bt), (cu, ct)) = (means(base, i), means(cur, i));
        text.push_str(&format!(
            "{i:>5}   {:>5} -> {:<5} ({})   {:>5} -> {:<5} ({})\n",
            fmt(bu, 3),
            fmt(cu, 3),
            pct_delta(bu, cu),
            fmt(bt, 2),
            fmt(ct, 2),
            pct_delta(bt, ct),
        ));
        stages.push(
            Value::obj()
                .set("stage", i as u64)
                .set("util_base", bu)
                .set("util_cur", cu)
                .set("tau_base", bt)
                .set("tau_cur", ct),
        );
    }
    let mut counters = Value::obj();
    let shared =
        cur.metrics.metrics.iter().filter_map(|(name, v)| match (base.metrics.get(name)?, v) {
            (MetricValue::Counter(b), MetricValue::Counter(c)) => Some((name, *b, *c)),
            _ => None,
        });
    for (k, (name, b, c)) in shared.enumerate() {
        if k == 0 {
            text.push_str("counter                      base -> cur\n");
        }
        text.push_str(&format!(
            "{name:<26} {b:>7} -> {c:<7} ({})\n",
            pct_delta(b as f64, c as f64)
        ));
        counters = counters.set(name, Value::obj().set("base", b).set("cur", c));
    }
    (text, Value::obj().set("stages", Value::Arr(stages)).set("counters", counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::ActiveAlert;
    use crate::alert::Severity;
    use crate::metrics::MetricsRegistry;

    /// Two samples of a worker that serves and talks on the wire: the
    /// latest (seq 9) accepted 40 and shed 2 requests in its window.
    fn sample_scrape() -> Scrape {
        let reg = MetricsRegistry::new();
        reg.gauge("health.stage0.alpha_margin").set(0.113);
        reg.counter("serve.accepted").add(1160);
        reg.counter("serve.shed").add(15);
        reg.gauge("serve.queue_depth").set(3.0);
        let rows = reg.histogram("serve.batch_rows", &[4.0, 8.0]);
        for _ in 0..10 {
            rows.observe(6.0);
        }
        for (name, v) in
            [("tx_bytes", 1.5e6), ("rx_bytes", 9e5), ("tx_frames", 5300.0), ("rx_frames", 4100.0)]
        {
            reg.gauge(&format!("wire.peer0.{name}")).set(v);
        }
        let before = reg.snapshot();
        reg.counter("serve.accepted").add(40);
        reg.counter("serve.shed").add(2);
        let row = |stage, util, fwd_us, bkwd_us, recomp_us, wait_us, tau, events| StageLive {
            stage,
            util,
            fwd_us,
            bkwd_us,
            recomp_us,
            wait_us,
            tau,
            tau_pairs: 12,
            events,
        };
        let sample = |seq, ts_us, metrics| LiveSample {
            seq,
            ts_us,
            window_us: 250_000,
            stages: vec![
                row(0, 0.93, 40.5, 81.0, f64::NAN, 1200, 2.98, 48),
                row(1, 0.88, 39.0, 80.0, 22.0, 800, 1.05, 50),
            ],
            metrics,
            sample_cost_us: 42,
        };
        Scrape {
            role: "worker-1".into(),
            n_stages: 2,
            max_sample_cost_us: 80,
            alerts: Vec::new(),
            samples: vec![sample(8, 650_000, before), sample(9, 900_000, reg.snapshot())],
        }
    }

    #[test]
    fn render_shows_stages_health_serve_and_wire() {
        let text = render("127.0.0.1:9100", &sample_scrape());
        assert!(text.contains("role worker-1"), "{text}");
        assert!(text.contains("seq 9"), "{text}");
        // Stage 0: util 93.0%, τ 2.98/3.0, α-margin +0.113.
        assert!(text.contains("93.0"), "{text}");
        assert!(text.contains("2.98/3.0"), "{text}");
        assert!(text.contains("+0.113"), "{text}");
        // Stage 1 has no margin gauge and no recomp → dashes, not 0.
        assert!(
            text.lines().any(|l| l.trim_start().starts_with('1') && l.ends_with('-')),
            "{text}"
        );
        assert!(text.contains("queue depth 3"), "{text}");
        assert!(text.contains("accepted 1200 (+40)"), "{text}");
        assert!(text.contains("shed 17"), "{text}");
        assert!(text.contains("batch rows p50 6.0"), "{text}");
        assert!(text.contains("tx 1.50 MB (5300 frames)"), "{text}");
        assert!(text.contains("rx 900.0 KB (4100 frames)"), "{text}");
    }

    #[test]
    fn render_degrades_on_empty_payload() {
        let empty = Scrape {
            role: "idle".into(),
            n_stages: 0,
            max_sample_cost_us: 0,
            alerts: Vec::new(),
            samples: Vec::new(),
        };
        let text = render("e", &empty);
        assert!(text.contains("no sample yet"), "{text}");
        assert!(!text.contains("serve:"), "{text}");
        assert!(!text.contains("wire:"), "{text}");
    }

    #[test]
    fn alerts_pane_lists_firing_rules() {
        let alert = |rule: &str, label: &str, severity, since_ts_us, value| ActiveAlert {
            rule: rule.into(),
            label: label.into(),
            severity,
            since_ts_us,
            value,
        };
        let mut p = sample_scrape();
        p.alerts = vec![
            alert("alpha_margin_floor", "stage1", Severity::Critical, 750_000, 0.42),
            alert("shed_burn", "", Severity::Warn, 500_000, 0.31),
        ];
        let text = render("w", &p);
        assert!(text.contains("ALERTS (2 firing)"), "{text}");
        assert!(text.contains("CRITICAL alpha_margin_floor [stage1]"), "{text}");
        assert!(text.contains("WARN     shed_burn   value 0.310"), "{text}");
        // Nothing firing → no pane at all.
        assert!(!render("w", &sample_scrape()).contains("ALERTS"), "quiet payload renders no pane");
    }

    #[test]
    fn render_many_concatenates_blocks() {
        let p = sample_scrape();
        let text = render_many(&[("a".to_string(), p.clone()), ("b".to_string(), p)]);
        assert!(text.contains("== a "), "{text}");
        assert!(text.contains("== b "), "{text}");
    }

    #[test]
    fn delta_mode_reports_percentage_changes() {
        let cur = sample_scrape().samples.pop().unwrap();
        let mut base = cur.clone();
        // Baseline had lower load on stage 0 and fewer accepts.
        base.stages[0].util = 0.465;
        base.metrics.metrics[1].1 = MetricValue::Counter(600);
        let (text, json) = diff("== worker ==", &base, &cur);
        assert!(text.contains("+100.0%"), "{text}");
        assert!(text.contains("serve.accepted"), "{text}");
        assert!(text.contains("600"), "{text}");
        let acc = json.get("counters").and_then(|c| c.get("serve.accepted")).unwrap();
        assert_eq!(acc.get("base").and_then(Value::as_f64), Some(600.0));
    }
}
