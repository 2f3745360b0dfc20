//! Rule-based alerting: the one place a signal becomes an alarm.
//!
//! PipeMare-style async training fails *slowly*: a shrinking Lemma-1
//! α-margin, creeping τ drift, a starving stage, a loss creeping away
//! from its baseline, a shed-rate ramp on the serving side. An
//! [`AlertEngine`] holds declarative [`AlertRule`]s and is evaluated
//! against each new [`LiveSample`]: attach it to a [`crate::LiveStore`]
//! with [`crate::LiveStore::attach_alerts`] and every ticker sample
//! evaluates it, or evaluate it synchronously, as the trainer's
//! `HealthHook` does once per optimizer step. Rules have `for`-duration
//! hysteresis: a condition must hold continuously for
//! [`AlertRule::for_window`] before the rule *fires*, and resolves on the
//! first sample where it no longer holds.
//!
//! Transitions surface in three places at once:
//!
//! * as typed instants ([`SpanKind::AlertFiring`] /
//!   [`SpanKind::AlertResolved`]) on a flight-recorder track, so black
//!   boxes and `pm trace` see exactly when an alert flipped — a
//!   training run's alert log is this track;
//! * in every stats scrape ([`crate::Scrape::alerts`]), so `pm top`
//!   renders a live ALERTS pane;
//! * through an optional firing hook.
//!
//! Two stock packs: [`default_rules`] for a live store (α-margin floor,
//! τ-vs-nominal drift, stage starvation, shed-rate burn) and
//! [`training_rules`] for a trainer (margin breaches, loss and
//! gradient-norm spikes, non-finite steps).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pipemare_theory::delay_slots;

use crate::event::{Recorder, SpanKind, TraceEvent, NO_TRACE};
use crate::health::HealthConfig;
use crate::metrics::MetricValue;
use crate::store::LiveSample;

/// EWMA decay of a [`AlertCondition::Spike`] baseline.
const SPIKE_BETA: f64 = 0.9;

/// How bad an alarm is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Info,
    /// The run is still producing numbers but theory or baselines say
    /// something is off.
    Warn,
    /// The run is numerically broken (NaN/Inf, divergence), or a live
    /// margin no longer covers the configured step size.
    Critical,
}

impl Severity {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// Comparison direction for threshold-like conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertCmp {
    /// Fires when the value exceeds the limit.
    Above,
    /// Fires when the value drops below the limit.
    Below,
}

impl AlertCmp {
    fn holds(self, value: f64, limit: f64) -> bool {
        match self {
            AlertCmp::Above => value > limit,
            AlertCmp::Below => value < limit,
        }
    }
}

/// What a rule reads out of a [`LiveSample`]. Signals containing
/// `{stage}` (or reading per-stage rows) evaluate once per stage and
/// fire/resolve independently per stage label.
#[derive(Clone, Debug)]
pub enum Signal {
    /// A registry metric by name: a gauge's value, or a counter's value
    /// as f64. Missing metric ⇒ no data.
    Metric(String),
    /// A gauge name pattern with `{stage}` expanded per stage index
    /// (e.g. `health.stage{stage}.alpha_margin`). Evaluated for every
    /// stage `0..n_stages` whose gauge exists.
    StageGauge(String),
    /// Per-stage utilization from the sample's stage rows. No data when
    /// the window saw no pipeline events at all (an idle process is not
    /// a starving one).
    StageUtil,
    /// Per-stage `|τ_measured − τ_nominal|` in microbatch slots. No
    /// data for stages with no τ pairs in the window.
    StageTauDrift,
}

/// The condition half of a rule.
#[derive(Clone, Debug)]
pub enum AlertCondition {
    /// Value vs a fixed limit.
    Threshold {
        /// What to read.
        signal: Signal,
        /// Which side of the limit fires.
        cmp: AlertCmp,
        /// The limit.
        limit: f64,
    },
    /// Burn rate over counter deltas: `Δnumerator / Δdenominator`
    /// per window, e.g. `serve.shed` over `serve.accepted`. No data
    /// when both deltas are zero (no traffic); `Δden == 0 < Δnum`
    /// counts as an infinite ratio (fires).
    BurnRate {
        /// Numerator counter (the bad events).
        numerator: String,
        /// Denominator counter (the attempted events).
        denominator: String,
        /// Fires while the ratio exceeds this.
        max_ratio: f64,
    },
    /// Value vs its own EWMA baseline (decay 0.9), per label: fires when
    /// a finite value exceeds `factor` × the baseline once `warmup`
    /// samples have been seen. A spiking value does not move the
    /// baseline, so a sustained excursion stays one firing; a non-finite
    /// value is no data.
    Spike {
        /// What to read.
        signal: Signal,
        /// How far above its baseline a value must be.
        factor: f64,
        /// Samples seen before the baseline is armed.
        warmup: usize,
    },
}

/// One declarative alert rule.
#[derive(Clone, Debug)]
pub struct AlertRule {
    /// Rule name (the identity shown everywhere).
    pub name: String,
    /// Severity reported on transitions and in scrapes.
    pub severity: Severity,
    /// When the rule is considered breached.
    pub condition: AlertCondition,
    /// How long the condition must hold continuously before firing
    /// (zero fires on the first breached sample).
    pub for_window: Duration,
}

/// One fire/resolve transition produced by [`AlertEngine::evaluate`].
#[derive(Clone, Debug)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// Index of the rule within its engine (stable across a run; the
    /// flight-recorder instant carries it in `microbatch`).
    pub rule_index: usize,
    /// Per-stage label (`"stage2"`) or empty for process-wide rules.
    pub label: String,
    /// Rule severity.
    pub severity: Severity,
    /// `true` = fired, `false` = resolved.
    pub firing: bool,
    /// Sample time of the transition (store clock µs).
    pub ts_us: u64,
    /// The observed value at the transition.
    pub value: f64,
}

/// A currently firing alert.
#[derive(Clone, Debug)]
pub struct ActiveAlert {
    /// Rule name.
    pub rule: String,
    /// Per-stage label or empty.
    pub label: String,
    /// Rule severity.
    pub severity: Severity,
    /// When the rule fired (store clock µs).
    pub since_ts_us: u64,
    /// Latest observed value.
    pub value: f64,
}

#[derive(Clone, Copy, Debug)]
enum RuleState {
    Pending { since_ts_us: u64 },
    Firing,
}

/// One spike rule's EWMA baseline for one label.
struct Baseline {
    ewma: f64,
    seen: usize,
}

impl Baseline {
    /// Whether `value` spikes; folds it into the baseline if not.
    fn spikes(&mut self, value: f64, factor: f64, warmup: usize) -> bool {
        let armed = self.seen >= warmup;
        self.seen += 1;
        if !value.is_finite() {
            return false;
        }
        if armed && self.ewma.is_finite() && value > factor * self.ewma.max(1e-12) {
            return true;
        }
        self.ewma = if self.ewma.is_finite() {
            SPIKE_BETA * self.ewma + (1.0 - SPIKE_BETA) * value
        } else {
            value
        };
        false
    }
}

struct EngineInner {
    /// Per (rule index, label) hysteresis state; absent = idle.
    states: HashMap<(usize, String), RuleState>,
    /// Per (rule index, label) spike baselines.
    baselines: HashMap<(usize, String), Baseline>,
    /// Last seen value per counter, for burn-rate deltas.
    counters: HashMap<String, u64>,
    /// Currently firing, in (rule, label) order.
    active: Vec<ActiveAlert>,
}

/// Evaluates a fixed rule set against successive samples, tracking
/// hysteresis and producing fire/resolve transitions. Thread-safe; one
/// engine is typically shared by a store (ticker evaluation), a scrape
/// payload (`active()`), and a journal replay never shares an engine
/// with a live store (state is per-evaluation-stream).
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    inner: Mutex<EngineInner>,
    recorder: Mutex<Option<(Arc<dyn Recorder + Send + Sync>, u32)>>,
    #[allow(clippy::type_complexity)]
    on_firing: Mutex<Option<Box<dyn Fn(&AlertTransition) + Send>>>,
}

impl AlertEngine {
    /// Creates an engine over a rule set.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        AlertEngine {
            rules,
            inner: Mutex::new(EngineInner {
                states: HashMap::new(),
                baselines: HashMap::new(),
                counters: HashMap::new(),
                active: Vec::new(),
            }),
            recorder: Mutex::new(None),
            on_firing: Mutex::new(None),
        }
    }

    /// The rule set.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Attaches a recorder + track: every transition is recorded as an
    /// [`SpanKind::AlertFiring`] / [`SpanKind::AlertResolved`] instant
    /// on that track (`microbatch` = rule index, `stage` = stage for
    /// per-stage labels).
    pub fn attach_recorder(&self, recorder: Arc<dyn Recorder + Send + Sync>, track: u32) {
        *self.recorder.lock().unwrap() = Some((recorder, track));
    }

    /// Registers a hook called on every *firing* transition (the arm
    /// for snapshot/black-box capture). Resolves do not call it.
    pub fn on_firing(&self, hook: impl Fn(&AlertTransition) + Send + 'static) {
        *self.on_firing.lock().unwrap() = Some(Box::new(hook));
    }

    /// Currently firing alerts.
    pub fn active(&self) -> Vec<ActiveAlert> {
        self.inner.lock().unwrap().active.clone()
    }

    /// Evaluates every rule against one sample; returns the transitions
    /// this sample caused (empty almost always). Samples must arrive in
    /// time order per engine.
    pub fn evaluate(&self, sample: &LiveSample) -> Vec<AlertTransition> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let mut transitions = Vec::new();
        // Counter deltas over the window, read by burn-rate rules.
        let mut deltas: HashMap<&str, u64> = HashMap::new();
        for (name, value) in &sample.metrics.metrics {
            if let MetricValue::Counter(cur) = value {
                if let Some(prev) = inner.counters.insert(name.clone(), *cur) {
                    deltas.insert(name.as_str(), cur.saturating_sub(prev));
                }
            }
        }
        for (rule_index, rule) in self.rules.iter().enumerate() {
            for (label, value) in evaluate_signal_values(&rule.condition, sample, &deltas) {
                let key = (rule_index, label.clone());
                // NaN is no data: no comparison holds for it.
                let breached = match &rule.condition {
                    AlertCondition::Threshold { cmp, limit, .. } => cmp.holds(value, *limit),
                    AlertCondition::BurnRate { max_ratio, .. } => value > *max_ratio,
                    AlertCondition::Spike { factor, warmup, .. } => inner
                        .baselines
                        .entry(key.clone())
                        .or_insert(Baseline { ewma: f64::NAN, seen: 0 })
                        .spikes(value, *factor, *warmup),
                };
                if breached {
                    let since = match inner.states.get(&key).copied() {
                        Some(RuleState::Firing) => {
                            // Keep the displayed value fresh.
                            if let Some(a) = inner
                                .active
                                .iter_mut()
                                .find(|a| a.rule == rule.name && a.label == label)
                            {
                                a.value = value;
                            }
                            continue;
                        }
                        Some(RuleState::Pending { since_ts_us }) => since_ts_us,
                        None => {
                            inner.states.insert(
                                key.clone(),
                                RuleState::Pending { since_ts_us: sample.ts_us },
                            );
                            sample.ts_us
                        }
                    };
                    if sample.ts_us.saturating_sub(since) >= rule.for_window.as_micros() as u64 {
                        inner.states.insert(key, RuleState::Firing);
                        inner.active.push(ActiveAlert {
                            rule: rule.name.clone(),
                            label: label.clone(),
                            severity: rule.severity,
                            since_ts_us: sample.ts_us,
                            value,
                        });
                        transitions.push(AlertTransition {
                            rule: rule.name.clone(),
                            rule_index,
                            label,
                            severity: rule.severity,
                            firing: true,
                            ts_us: sample.ts_us,
                            value,
                        });
                    }
                } else if let Some(state) = inner.states.remove(&key) {
                    if matches!(state, RuleState::Firing) {
                        inner.active.retain(|a| !(a.rule == rule.name && a.label == label));
                        transitions.push(AlertTransition {
                            rule: rule.name.clone(),
                            rule_index,
                            label,
                            severity: rule.severity,
                            firing: false,
                            ts_us: sample.ts_us,
                            value,
                        });
                    }
                }
            }
        }
        drop(guard);
        if !transitions.is_empty() {
            if let Some((recorder, track)) = self.recorder.lock().unwrap().clone() {
                for t in &transitions {
                    let stage =
                        t.label.strip_prefix("stage").and_then(|s| s.parse().ok()).unwrap_or(0);
                    recorder.record(TraceEvent {
                        kind: if t.firing {
                            SpanKind::AlertFiring
                        } else {
                            SpanKind::AlertResolved
                        },
                        track,
                        stage,
                        microbatch: t.rule_index as u32,
                        ts_us: t.ts_us,
                        dur_us: 0,
                        trace: NO_TRACE,
                    });
                }
            }
            let hook = self.on_firing.lock().unwrap();
            if let Some(hook) = hook.as_ref() {
                for t in transitions.iter().filter(|t| t.firing) {
                    hook(t);
                }
            }
        }
        transitions
    }
}

/// Expands a rule's signal into `(label, value)` pairs for one sample.
/// NaN means "no data", which never breaches.
fn evaluate_signal_values(
    condition: &AlertCondition,
    sample: &LiveSample,
    deltas: &HashMap<&str, u64>,
) -> Vec<(String, f64)> {
    let signal = match condition {
        AlertCondition::Threshold { signal, .. } | AlertCondition::Spike { signal, .. } => signal,
        AlertCondition::BurnRate { numerator, denominator, .. } => {
            let num = deltas.get(numerator.as_str()).copied();
            let den = deltas.get(denominator.as_str()).copied();
            let ratio = match (num, den) {
                (None, _) | (_, None) => f64::NAN,
                (Some(0), Some(0)) => f64::NAN, // no traffic: no data
                (Some(n), Some(0)) => {
                    debug_assert!(n > 0);
                    f64::INFINITY
                }
                (Some(n), Some(d)) => n as f64 / d as f64,
            };
            return vec![(String::new(), ratio)];
        }
    };
    match signal {
        Signal::Metric(name) => {
            let value = match sample.metrics.get(name) {
                Some(MetricValue::Gauge(g)) => *g,
                Some(MetricValue::Counter(c)) => *c as f64,
                Some(MetricValue::Histogram(h)) => h.mean(),
                None => f64::NAN,
            };
            vec![(String::new(), value)]
        }
        Signal::StageGauge(pattern) => {
            let n = sample.stages.len().max(stage_gauge_count(pattern, sample));
            (0..n)
                .filter_map(|s| {
                    let name = pattern.replace("{stage}", &s.to_string());
                    let value = match sample.metrics.get(&name) {
                        Some(MetricValue::Gauge(g)) => *g,
                        _ => return None,
                    };
                    Some((format!("stage{s}"), value))
                })
                .collect()
        }
        Signal::StageUtil => {
            // An idle window (no events anywhere) is no-data, not
            // starvation: a paused pipeline must not page anyone.
            let any_events = sample.stages.iter().any(|st| st.events > 0);
            sample
                .stages
                .iter()
                .map(|st| {
                    let v = if any_events { st.util } else { f64::NAN };
                    (format!("stage{}", st.stage), v)
                })
                .collect()
        }
        Signal::StageTauDrift => {
            let n_stages = sample.stages.len();
            sample
                .stages
                .iter()
                .map(|st| {
                    let v = if st.tau_pairs == 0 || !st.tau.is_finite() {
                        f64::NAN
                    } else {
                        let nominal = delay_slots(n_stages, st.stage as usize) as f64;
                        (st.tau - nominal).abs()
                    };
                    (format!("stage{}", st.stage), v)
                })
                .collect()
        }
    }
}

/// How many `pattern`-shaped gauges the sample actually carries, stage 0
/// up to the first missing one (so stage gauges still alert when the
/// sample has no stage rows: a health registry without an event source,
/// or a trainer's per-step sample).
fn stage_gauge_count(pattern: &str, sample: &LiveSample) -> usize {
    (0..)
        .take_while(|s| sample.metrics.get(&pattern.replace("{stage}", &s.to_string())).is_some())
        .count()
}

/// The stock rule pack:
///
/// * `alpha_margin_floor` (critical, immediate): any stage's
///   `health.stage{i}.alpha_margin` below 1.0 — the Lemma-1 bound no
///   longer covers the configured α (the floor [`training_rules`]'
///   `margin_breach` uses too).
/// * `tau_drift` (warn, 1 s): measured τ off nominal by more than one
///   microbatch slot.
/// * `stage_starvation` (warn, 1 s): a stage under 5% utilization while
///   the pipeline is otherwise active.
/// * `shed_burn` (warn, 500 ms): serving shed-to-accepted ratio above
///   10% over a window.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "alpha_margin_floor".into(),
            severity: Severity::Critical,
            condition: AlertCondition::Threshold {
                signal: Signal::StageGauge("health.stage{stage}.alpha_margin".into()),
                cmp: AlertCmp::Below,
                limit: 1.0,
            },
            for_window: Duration::ZERO,
        },
        AlertRule {
            name: "tau_drift".into(),
            severity: Severity::Warn,
            condition: AlertCondition::Threshold {
                signal: Signal::StageTauDrift,
                cmp: AlertCmp::Above,
                limit: 1.0,
            },
            for_window: Duration::from_secs(1),
        },
        AlertRule {
            name: "stage_starvation".into(),
            severity: Severity::Warn,
            condition: AlertCondition::Threshold {
                signal: Signal::StageUtil,
                cmp: AlertCmp::Below,
                limit: 0.05,
            },
            for_window: Duration::from_secs(1),
        },
        AlertRule {
            name: "shed_burn".into(),
            severity: Severity::Warn,
            condition: AlertCondition::BurnRate {
                numerator: "serve.shed".into(),
                denominator: "serve.accepted".into(),
                max_ratio: 0.1,
            },
            for_window: Duration::from_millis(500),
        },
    ]
}

/// The trainer's pack, evaluated once per optimizer step on a sample of
/// the health monitor's registry (see `pipemare_core::HealthHook`):
///
/// * `margin_breach` / `margin_breach_t2` (warn): a stage's
///   `health.stage{i}.alpha_margin` / `.alpha_margin_t2` below 1.0;
/// * `loss_spike` / `grad_norm_spike` (warn): `trainer.loss` /
///   `trainer.grad_norm` above [`HealthConfig::spike_factor`] × its EWMA
///   baseline, armed after [`HealthConfig::warmup_steps`] steps;
/// * `nonfinite` (critical): `trainer.nonfinite_steps` above 0, i.e. a
///   step whose loss, gradient or weights came back NaN or Inf (the
///   step that latches divergence is one).
///
/// Every rule fires on the first breached sample.
pub fn training_rules(cfg: &HealthConfig) -> Vec<AlertRule> {
    let rule = |name: &str, severity, condition| AlertRule {
        name: name.into(),
        severity,
        condition,
        for_window: Duration::ZERO,
    };
    let floor = |pattern: &str| AlertCondition::Threshold {
        signal: Signal::StageGauge(pattern.into()),
        cmp: AlertCmp::Below,
        limit: 1.0,
    };
    let spike = |name: &str| AlertCondition::Spike {
        signal: Signal::Metric(name.into()),
        factor: cfg.spike_factor,
        warmup: cfg.warmup_steps,
    };
    let nonfinite = AlertCondition::Threshold {
        signal: Signal::Metric("trainer.nonfinite_steps".into()),
        cmp: AlertCmp::Above,
        limit: 0.0,
    };
    vec![
        rule("margin_breach", Severity::Warn, floor("health.stage{stage}.alpha_margin")),
        rule("margin_breach_t2", Severity::Warn, floor("health.stage{stage}.alpha_margin_t2")),
        rule("loss_spike", Severity::Warn, spike("trainer.loss")),
        rule("grad_norm_spike", Severity::Warn, spike("trainer.grad_norm")),
        rule("nonfinite", Severity::Critical, nonfinite),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, MetricsSnapshot};
    use crate::store::StageLive;

    fn sample_at(ts_us: u64, metrics: MetricsSnapshot) -> LiveSample {
        LiveSample {
            seq: ts_us / 1000,
            ts_us,
            window_us: 250_000,
            stages: Vec::new(),
            metrics,
            sample_cost_us: 1,
        }
    }

    fn gauge_sample(ts_us: u64, name: &str, value: f64) -> LiveSample {
        let reg = MetricsRegistry::new();
        reg.gauge(name).set(value);
        sample_at(ts_us, reg.snapshot())
    }

    fn threshold_rule(name: &str, limit: f64, for_ms: u64) -> AlertRule {
        AlertRule {
            name: "gauge_floor".into(),
            severity: Severity::Warn,
            condition: AlertCondition::Threshold {
                signal: Signal::Metric(name.into()),
                cmp: AlertCmp::Below,
                limit,
            },
            for_window: Duration::from_millis(for_ms),
        }
    }

    #[test]
    fn threshold_fires_immediately_with_zero_for_window() {
        let engine = AlertEngine::new(vec![threshold_rule("m", 1.0, 0)]);
        let t = engine.evaluate(&gauge_sample(1_000, "m", 0.5));
        assert_eq!(t.len(), 1);
        assert!(t[0].firing);
        assert_eq!(t[0].rule, "gauge_floor");
        assert_eq!(engine.active().len(), 1);
        // Still breached: no new transition, value refreshes.
        let t = engine.evaluate(&gauge_sample(2_000, "m", 0.25));
        assert!(t.is_empty());
        assert!((engine.active()[0].value - 0.25).abs() < 1e-12);
        // Recovered: resolve.
        let t = engine.evaluate(&gauge_sample(3_000, "m", 2.0));
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing);
        assert!(engine.active().is_empty());
    }

    #[test]
    fn for_window_hysteresis_requires_continuous_breach() {
        let engine = AlertEngine::new(vec![threshold_rule("m", 1.0, 500)]);
        assert!(engine.evaluate(&gauge_sample(0, "m", 0.5)).is_empty(), "pending, not firing");
        // Breach interrupted: pending resets without a transition.
        assert!(engine.evaluate(&gauge_sample(250_000, "m", 2.0)).is_empty());
        assert!(engine.evaluate(&gauge_sample(500_000, "m", 0.5)).is_empty());
        assert!(engine.evaluate(&gauge_sample(750_000, "m", 0.5)).is_empty(), "only 250 ms in");
        let t = engine.evaluate(&gauge_sample(1_000_000, "m", 0.5));
        assert_eq!(t.len(), 1, "500 ms of continuous breach fires");
        assert!(t[0].firing);
    }

    #[test]
    fn missing_gauge_is_no_data_not_a_breach() {
        let engine = AlertEngine::new(vec![threshold_rule("m", 1.0, 0)]);
        let reg = MetricsRegistry::new();
        reg.gauge("other").set(0.0);
        assert!(engine.evaluate(&sample_at(1_000, reg.snapshot())).is_empty());
    }

    #[test]
    fn burn_rate_uses_counter_deltas_and_ignores_idle_windows() {
        let engine = AlertEngine::new(vec![AlertRule {
            name: "shed_burn".into(),
            severity: Severity::Warn,
            condition: AlertCondition::BurnRate {
                numerator: "serve.shed".into(),
                denominator: "serve.accepted".into(),
                max_ratio: 0.1,
            },
            for_window: Duration::ZERO,
        }]);
        let reg = MetricsRegistry::new();
        let shed = reg.counter("serve.shed");
        let accepted = reg.counter("serve.accepted");
        accepted.add(100);
        assert!(
            engine.evaluate(&sample_at(0, reg.snapshot())).is_empty(),
            "first sample: no delta"
        );
        accepted.add(100);
        shed.add(2);
        assert!(
            engine.evaluate(&sample_at(250_000, reg.snapshot())).is_empty(),
            "2% shed is under the 10% ratio"
        );
        shed.add(50);
        let t = engine.evaluate(&sample_at(500_000, reg.snapshot()));
        assert_eq!(t.len(), 1, "50 sheds over 0 accepts burns at ∞");
        assert!(t[0].firing);
        // Idle window (no deltas at all): no data — stays firing rather
        // than flapping... but our semantics resolve on false only; NaN
        // is not false for BurnRate (breached = !NaN && >ratio) → NaN
        // resolves. Traffic resumed cleanly resolves too:
        accepted.add(100);
        let t = engine.evaluate(&sample_at(750_000, reg.snapshot()));
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing);
    }

    #[test]
    fn stage_rules_fire_and_resolve_per_stage() {
        let engine = AlertEngine::new(vec![AlertRule {
            name: "alpha_margin_floor".into(),
            severity: Severity::Critical,
            condition: AlertCondition::Threshold {
                signal: Signal::StageGauge("health.stage{stage}.alpha_margin".into()),
                cmp: AlertCmp::Below,
                limit: 1.0,
            },
            for_window: Duration::ZERO,
        }]);
        let reg = MetricsRegistry::new();
        reg.gauge("health.stage0.alpha_margin").set(2.0);
        reg.gauge("health.stage1.alpha_margin").set(0.4);
        let t = engine.evaluate(&sample_at(1_000, reg.snapshot()));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].label, "stage1");
        assert!(t[0].firing);
        reg.gauge("health.stage1.alpha_margin").set(1.4);
        let t = engine.evaluate(&sample_at(2_000, reg.snapshot()));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].label, "stage1");
        assert!(!t[0].firing);
        // A sample without stage rows still reaches every stage's gauge,
        // past the first 64 (the paper's ResNet runs reach P = 107).
        let reg = MetricsRegistry::new();
        for s in 0..100 {
            reg.gauge(&format!("health.stage{s}.alpha_margin")).set(if s == 80 {
                0.5
            } else {
                2.0
            });
        }
        let t = engine.evaluate(&sample_at(3_000, reg.snapshot()));
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].label.as_str(), t[0].firing), ("stage80", true));
    }

    #[test]
    fn spike_needs_an_armed_baseline_and_fires_once_per_excursion() {
        let spike = |warmup| {
            AlertEngine::new(vec![AlertRule {
                name: "loss_spike".into(),
                severity: Severity::Warn,
                condition: AlertCondition::Spike {
                    signal: Signal::Metric("loss".into()),
                    factor: 10.0,
                    warmup,
                },
                for_window: Duration::ZERO,
            }])
        };
        let fired = |engine: &AlertEngine, t: u64, value: f64| {
            let t = engine.evaluate(&gauge_sample(t, "loss", value));
            t.iter().filter(|t| t.firing).count()
        };
        // A huge first sample must not fire: the baseline is unarmed.
        assert_eq!(fired(&spike(3), 0, 1e6), 0);

        let engine = spike(3);
        for t in 0..6 {
            assert_eq!(fired(&engine, t, 1.0), 0);
        }
        // 100× the 1.0 baseline fires once per excursion, and a spiking
        // value does not drag the baseline up to meet it.
        assert_eq!(fired(&engine, 6, 100.0), 1);
        assert_eq!(fired(&engine, 7, 200.0), 0);
        assert_eq!(fired(&engine, 8, 1.0), 0);
        assert_eq!(fired(&engine, 9, 100.0), 1);
        // Non-finite values are no data: no firing, baseline unmoved.
        assert_eq!(fired(&engine, 10, f64::INFINITY), 0);
        assert_eq!(fired(&engine, 11, 1.0), 0);
        assert_eq!(fired(&engine, 12, 100.0), 1);
    }

    #[test]
    fn starvation_skips_idle_pipelines() {
        let engine = AlertEngine::new(vec![AlertRule {
            name: "stage_starvation".into(),
            severity: Severity::Warn,
            condition: AlertCondition::Threshold {
                signal: Signal::StageUtil,
                cmp: AlertCmp::Below,
                limit: 0.05,
            },
            for_window: Duration::ZERO,
        }]);
        let stage = |stage, util, events| StageLive {
            stage,
            util,
            fwd_us: f64::NAN,
            bkwd_us: f64::NAN,
            recomp_us: f64::NAN,
            wait_us: 0,
            tau: f64::NAN,
            tau_pairs: 0,
            events,
        };
        let mut s = sample_at(1_000, MetricsSnapshot::default());
        s.stages = vec![stage(0, 0.0, 0), stage(1, 0.0, 0)];
        assert!(engine.evaluate(&s).is_empty(), "a fully idle pipeline is not starving");
        let mut s = sample_at(2_000, MetricsSnapshot::default());
        s.stages = vec![stage(0, 0.9, 100), stage(1, 0.01, 2)];
        let t = engine.evaluate(&s);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].label, "stage1");
    }

    #[test]
    fn transitions_land_on_the_flight_recorder_track() {
        let engine = AlertEngine::new(vec![threshold_rule("m", 1.0, 0)]);
        let flight = Arc::new(crate::FlightRecorder::new(6, 64));
        engine.attach_recorder(flight.clone(), 5);
        engine.evaluate(&gauge_sample(1_000, "m", 0.5));
        engine.evaluate(&gauge_sample(2_000, "m", 2.0));
        let events = crate::EventSource::snapshot_events(&*flight);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, SpanKind::AlertFiring);
        assert_eq!(events[0].track, 5);
        assert_eq!(events[0].microbatch, 0, "rule index rides in microbatch");
        assert_eq!(events[1].kind, SpanKind::AlertResolved);
    }

    #[test]
    fn firing_hook_arms_once_per_transition() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let engine = AlertEngine::new(vec![threshold_rule("m", 1.0, 0)]);
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        engine.on_firing(move |t| {
            assert!(t.firing);
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        engine.evaluate(&gauge_sample(1_000, "m", 0.5));
        engine.evaluate(&gauge_sample(2_000, "m", 0.5)); // still firing: no re-arm
        engine.evaluate(&gauge_sample(3_000, "m", 2.0)); // resolve: no arm
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn default_pack_names_and_shapes() {
        let rules = default_rules();
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["alpha_margin_floor", "tau_drift", "stage_starvation", "shed_burn"]);
        assert!(matches!(rules[0].severity, Severity::Critical));

        let cfg = HealthConfig { spike_factor: 3.0, warmup_steps: 7, ..HealthConfig::default() };
        let rules = training_rules(&cfg);
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["margin_breach", "margin_breach_t2", "loss_spike", "grad_norm_spike", "nonfinite"]
        );
        assert!(rules.iter().all(|r| r.for_window.is_zero()));
        assert!(matches!(rules[2].condition, AlertCondition::Spike { factor: 3.0, warmup: 7, .. }));
        assert_eq!(rules[4].severity, Severity::Critical);
    }
}
