//! The claims ledger: one row per paper artifact — every table, figure
//! and design ablation EXPERIMENTS.md discusses. A row runs the
//! [`workloads`](crate::workloads) setups or the analytic models, records
//! its numbers in an [`ExperimentLog`], and records each of
//! EXPERIMENTS.md's verdicts as a 0/1 scalar `claim.<key>`: a predicate
//! over those numbers, with its tolerance, named by what it claims.
//!
//! The `claims` binary runs every row into one log keyed `<row>.<key>`,
//! checked in as `CLAIMS.json` and gated by `check_bench`. EXPERIMENTS.md
//! holds one block per row, rendered from `CLAIMS.json` by
//! [`update_doc`]. The [`ANALYTIC`] rows take about two seconds, the
//! [`TRAINING`] rows about a minute in release.

use std::fmt::Write as _;
use std::iter::successors;

use pipemare_core::stats::amortized_throughput;
use pipemare_core::{
    run as train, PipelineTrainer, RecomputeCfg, RunHistory, RunSpec, TrainConfig, TrainMode,
};
use pipemare_data::{cpusmall_like, SyntheticImages};
use pipemare_nn::{CifarResNet, ResNetConfig, TrainModel};
use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare_pipeline::{
    gpipe_bubble_throughput, normalized_throughput, ActivationModel, HogwildDelays, MemoryModel,
    Method, PipelineClock, PipelinePlan, StageOpKind,
};
use pipemare_theory::{
    char_poly_basic, char_poly_discrepancy, char_poly_recompute, char_poly_t2, gamma_star,
    lemma1_max_alpha, max_stable_alpha, spectral_radius, Polynomial, QuadraticSim,
};

use crate::report::ExperimentLog;
use crate::workloads::{ImageWorkload, TranslationWorkload};

/// A row: its key prefix in the ledger and the function that records it.
pub type Row = (&'static str, fn(&mut ExperimentLog));

/// Rows computed from closed forms and small simulations.
pub const ANALYTIC: &[Row] = &[
    ("fig1", fig1),
    ("table1", table1),
    ("fig3a", fig3a),
    ("fig3b", fig3b),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig6", fig6),
    ("fig8", fig8),
    ("fig16", fig16),
    ("table4", table4),
    ("table5", table5),
    ("ablation_gamma", ablation_gamma),
];

/// Rows that train the synthetic stand-ins.
pub const TRAINING: &[Row] = &[
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig7", fig7),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("table2", table2),
    ("table3", table3),
    ("ablation_partitioning", ablation_partitioning),
];

/// Every row, analytic first.
pub fn rows() -> impl Iterator<Item = &'static Row> {
    ANALYTIC.iter().chain(TRAINING)
}

/// Runs one row into a log named after it.
pub fn run(&(id, record): &Row) -> ExperimentLog {
    let mut log = ExperimentLog::new(id);
    record(&mut log);
    log
}

/// Folds row logs into the ledger, prefixing each key with its row id.
pub fn ledger(rows: &[ExperimentLog]) -> ExperimentLog {
    let mut out = ExperimentLog::new("claims");
    for log in rows {
        for (k, v) in &log.series {
            out.push_series(&format!("{}.{k}", log.artifact), v.iter().copied());
        }
        for (k, v) in &log.scalars {
            out.push_scalar(&format!("{}.{k}", log.artifact), *v);
        }
    }
    out
}

/// One row's log, read back out of the ledger.
pub fn row_log(ledger: &ExperimentLog, id: &str) -> ExperimentLog {
    fn own<T: Clone>(entries: &[(String, T)], prefix: &str) -> Vec<(String, T)> {
        let strip = |(k, v): &(String, T)| Some((k.strip_prefix(prefix)?.to_string(), v.clone()));
        entries.iter().filter_map(strip).collect()
    }
    let prefix = format!("{id}.");
    let (series, scalars) = (own(&ledger.series, &prefix), own(&ledger.scalars, &prefix));
    ExperimentLog { artifact: id.to_string(), series, scalars }
}

/// A row's block: its numbers, one line per key, then its verdicts. The
/// `claims` binary prints it and EXPERIMENTS.md embeds it.
pub fn render(log: &ExperimentLog) -> String {
    let (claims, scalars): (Vec<_>, Vec<_>) =
        log.scalars.iter().partition(|(k, _)| k.starts_with("claim."));
    let series = log.series.iter().map(|(k, v)| (k, v.iter().map(|&x| fmt(x)).collect()));
    let lines: Vec<(&String, Vec<String>)> =
        series.chain(scalars.into_iter().map(|(k, v)| (k, vec![fmt(*v)]))).collect();
    let width = lines.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::from("```text\n");
    for (k, v) in &lines {
        let _ = writeln!(out, "{k:width$}  {}", v.join(" "));
    }
    out.push_str("```\n\n");
    for (k, v) in claims {
        let verdict = if *v == 1.0 { "holds" } else { "fails" };
        let _ = writeln!(out, "- **{verdict}** `{}`", &k["claim.".len()..]);
    }
    out
}

/// `doc` with each row's block — the text between `<!-- claims:<id> -->`
/// and `<!-- /claims:<id> -->` — rendered from `ledger`.
///
/// # Errors
///
/// Names the first row whose markers are missing.
pub fn update_doc(doc: &str, ledger: &ExperimentLog) -> Result<String, String> {
    let mut out = doc.to_string();
    for (id, _) in rows() {
        let (open, close) = (format!("<!-- claims:{id} -->\n"), format!("<!-- /claims:{id} -->"));
        let missing = || format!("no `{open}` … `{close}` block");
        let start = out.find(&open).ok_or_else(missing)? + open.len();
        let end = start + out[start..].find(&close).ok_or_else(missing)?;
        out.replace_range(start..end, &render(&row_log(ledger, id)));
    }
    Ok(out)
}

/// Integers exactly; other numbers to five significant digits, in
/// scientific notation outside `[1e-4, 1e6)`.
fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{v:.0}");
    }
    if !(1e-4..1e6).contains(&v.abs()) {
        return format!("{v:.4e}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}").trim_end_matches('0').trim_end_matches('.').to_string()
}

fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// Records the row's verdict `key`.
fn claim(l: &mut ExperimentLog, key: &str, holds: bool) {
    l.push_scalar(&format!("claim.{key}"), flag(holds));
}

fn key(m: Method) -> String {
    m.name().to_lowercase()
}

/// Records a training run — its per-epoch metric and normalized time, and
/// whether it diverged — and hands it back.
fn history(l: &mut ExperimentLog, run: &str, h: RunHistory) -> RunHistory {
    l.push_series(&format!("{run}.metric"), h.epochs.iter().map(|e| e.metric as f64));
    l.push_series(&format!("{run}.time"), h.epochs.iter().map(|e| e.time));
    l.push_scalar(&format!("{run}.diverged"), flag(h.diverged));
    h
}

/// Records whether `h` reached `target` and, if it did, when; returns the
/// normalized time it took.
fn reach(l: &mut ExperimentLog, run: &str, h: &RunHistory, target: f32) -> Option<f64> {
    let time = h.time_to_target(target);
    l.push_scalar(&format!("{run}.reached"), flag(time.is_some()));
    if let (Some(t), Some(e)) = (time, h.epochs_to_target(target)) {
        l.push_scalar(&format!("{run}.time_to_target"), t);
        l.push_scalar(&format!("{run}.epochs_to_target"), e as f64);
    }
    time
}

/// Whether every epoch of `h` costs `cost` units of normalized time
/// (within 1e-9).
fn epochs_cost(h: &RunHistory, cost: f64) -> bool {
    h.epochs.windows(2).all(|w| (w[1].time - w[0].time - cost).abs() < 1e-9)
}

// ---------------------------------------------------------------------
// Analytic rows.

/// Figure 1: each method's unit-slot plan at P = 3, N = 1, 3 minibatches.
/// In the diagram a forward of microbatch m is m + 1, its backward
/// −(m + 1) and an idle slot 0 (these plans replay nothing).
fn fig1(l: &mut ExperimentLog) {
    let slots = Method::ALL.map(|m| {
        let plan = PipelinePlan::for_method(m, 3, 1, 3);
        for s in 0..plan.stages() {
            let mut cells = vec![0.0; plan.slots()];
            for op in plan.timeline(s) {
                let mb = op.micro as f64 + 1.0;
                cells[op.slot] = if op.kind == StageOpKind::Fwd { mb } else { -mb };
            }
            l.push_series(&format!("{}.stage{s}", key(m)), cells);
        }
        l.push_scalar(&format!("{}.slots", key(m)), plan.slots() as f64);
        l.push_scalar(&format!("{}.bubbles", key(m)), plan.bubbles() as f64);
        l.push_scalar(&format!("{}.utilization", key(m)), plan.utilization());
        plan.slots()
    });
    // GPipe fills and drains each minibatch: 3·(2N + 2(P − 1)) slots; the
    // asynchronous methods fill and drain once: 3·2N + 2(P − 1).
    claim(l, "gpipe_drains_every_minibatch", slots[0] == 18);
    claim(l, "async_fills_and_drains_once", slots[1] == 10 && slots[2] == 10);
}

/// Table 1 at P = 8, N = 4: normalized throughput per method, and
/// PipeMare's forward delay per stage i measured on the microbatch clock
/// at t = 50 beside the nominal `(2(P − i) + 1)/N`.
fn table1(l: &mut ExperimentLog) {
    let (p, n, t) = (8, 4, 50);
    let tput = Method::ALL.map(|m| normalized_throughput(m, p, n));
    for (m, x) in Method::ALL.iter().zip(tput) {
        l.push_scalar(&format!("{}.throughput", key(*m)), x);
    }
    let clk = PipelineClock::new(p, n);
    let nominal: Vec<f64> = (0..p).map(|s| clk.nominal_tau_fwd(s)).collect();
    let measured: Vec<f64> = (0..p)
        .map(|s| {
            let version = |mb| clk.fwd_version(Method::PipeMare, t, mb, s) as f64;
            t as f64 - (0..n).map(version).sum::<f64>() / n as f64
        })
        .collect();
    let nominal_delay = nominal.iter().zip(&measured).all(|(a, b)| (a - b).abs() < 1e-12);
    l.push_series("tau_fwd.nominal", nominal);
    l.push_series("tau_fwd.measured", measured);
    claim(l, "pipemare_forward_delay_is_nominal_within_1e-12", nominal_delay);
    let bubble = (tput[0] - 4.0 / 11.0).abs() < 1e-12 && tput[1] == 1.0 && tput[2] == 1.0;
    claim(l, "gpipe_throughput_is_n_over_n_plus_p_minus_1", bubble);
}

/// Runs the quadratic model at λ = 1, N(0, 1) noise, 250 steps, and
/// records its loss every 25 steps (capped at 9999), tail loss and
/// overflow flag. Returns the tail loss and the sampled losses.
fn quadratic(l: &mut ExperimentLog, run: &str, sim: QuadraticSim) -> (f64, Vec<f64>) {
    let r = QuadraticSim { lambda: 1.0, noise_std: 1.0, steps: 250, ..sim }.run();
    let sampled: Vec<f64> = r.losses.iter().step_by(25).map(|&v| v.min(9999.0)).collect();
    let tail = r.tail_loss().min(f64::MAX);
    l.push_series(&format!("{run}.loss"), sampled.iter().copied());
    l.push_scalar(&format!("{run}.tail_loss"), tail);
    l.push_scalar(&format!("{run}.diverged"), flag(r.diverged));
    (tail, sampled)
}

/// Figure 3(a): the quadratic model at α = 0.2, τ ∈ {0, 5, 10}.
fn fig3a(l: &mut ExperimentLog) {
    let tail = [0, 5, 10].map(|tau| {
        let sim = QuadraticSim { alpha: 0.2, tau_fwd: tau, seed: 1, ..Default::default() };
        quadratic(l, &format!("tau{tau}"), sim).0
    });
    claim(l, "tau0_and_tau5_tail_loss_below_1", tail[0] < 1.0 && tail[1] < 1.0);
    claim(l, "tau10_tail_loss_above_100", tail[2] > 100.0);
}

/// Full-batch SGD on `mean((x·w + b − y)²)` with every coordinate read
/// `tau` steps stale, for 20 000 steps; the final loss, or ∞ once the
/// weights blow up.
fn uniform_delay_sgd(x: &[f32], y: &[f32], d: usize, alpha: f32, tau: usize) -> f64 {
    let n = y.len();
    let mut history: Vec<Vec<f32>> = vec![vec![0.0; d + 1]; tau + 1];
    let (mut w, mut grad, zeros) = (vec![0.0f32; d + 1], vec![0.0f32; d + 1], vec![0.0; d + 1]);
    for t in 0..20_000 {
        // `w` holds the weights and then the bias.
        let delayed = if t >= tau { &history[(t - tau) % (tau + 1)] } else { &zeros };
        grad.fill(0.0);
        for i in 0..n {
            let row = &x[i * d..(i + 1) * d];
            let pred: f32 =
                row.iter().zip(delayed.iter()).map(|(&a, &b)| a * b).sum::<f32>() + delayed[d];
            let err = 2.0 * (pred - y[i]) / n as f32;
            for j in 0..d {
                grad[j] += err * row[j];
            }
            grad[d] += err;
        }
        for j in 0..=d {
            w[j] -= alpha * grad[j];
        }
        if !w.iter().all(|v| v.is_finite()) || w.iter().any(|v| v.abs() > 1e20) {
            return f64::INFINITY;
        }
        history[(t + 1) % (tau + 1)].copy_from_slice(&w);
    }
    let mut loss = 0.0f64;
    for i in 0..n {
        let row = &x[i * d..(i + 1) * d];
        let pred: f32 = row.iter().zip(w.iter()).map(|(&a, &b)| a * b).sum::<f32>() + w[d];
        loss += ((pred - y[i]) as f64).powi(2);
    }
    loss / n as f64
}

/// Figure 3(b): uniform-delay SGD on the 12-dimensional cpusmall-like
/// regression (n = 128) over α = 2⁻¹²…2⁻² and τ = 1…1024. Per τ: which
/// α diverge, the final losses of the rest, the first divergent α (0 if
/// none) and the Lemma 1 bound.
fn fig3b(l: &mut ExperimentLog) {
    let ds = cpusmall_like(128, 2);
    let lambda = ds.max_curvature as f64;
    let alphas: Vec<f32> = (2..=12).rev().map(|e| 2f32.powi(-e)).collect();
    l.push_scalar("lambda", lambda);
    l.push_series("alpha", alphas.iter().map(|&a| a as f64));
    let first_over_bound = [1, 4, 16, 64, 256, 1024].map(|tau| {
        let sgd = |&a: &f32| uniform_delay_sgd(ds.x.data(), ds.y.data(), 12, a, tau);
        let losses: Vec<f64> = alphas.iter().map(sgd).collect();
        let first = alphas.iter().zip(&losses).find(|(_, v)| !v.is_finite());
        let first = first.map_or(0.0, |f| *f.0 as f64);
        let bound = lemma1_max_alpha(lambda, tau);
        l.push_series(&format!("tau{tau}.diverged"), losses.iter().map(|v| flag(!v.is_finite())));
        l.push_series(&format!("tau{tau}.loss"), losses.into_iter().filter(|v| v.is_finite()));
        l.push_scalar(&format!("tau{tau}.first_divergent_alpha"), first);
        l.push_scalar(&format!("tau{tau}.bound"), bound);
        (first, first / bound)
    });
    // Through τ = 256 the boundary falls as 1/τ, within 1–4× Lemma 1's
    // bound; at τ = 1024, 20 000 steps under-detect slow divergence.
    let upto256 = &first_over_bound[..5];
    claim(l, "boundary_within_1_to_4x_lemma1", upto256.iter().all(|r| (1.0..=4.0).contains(&r.1)));
    claim(l, "boundary_falls_with_tau", upto256.windows(2).all(|w| w[1].0 < w[0].0));
    claim(l, "tau1024_boundary_above_4x_lemma1", first_over_bound[5].1 > 4.0);
}

/// Figure 5(a): the quadratic model at α = 0.12, τ_fwd = 10, τ_bkwd = 6,
/// Δ ∈ {0, 3, 5}.
fn fig5a(l: &mut ExperimentLog) {
    let [none, three, five] = [0, 3, 5].map(|delta| {
        let (alpha, tau_fwd, tau_bkwd, delta) = (0.12, 10, 6, delta as f64);
        let sim = QuadraticSim { alpha, tau_fwd, tau_bkwd, delta, seed: 2, ..Default::default() };
        quadratic(l, &format!("delta{delta}"), sim).1
    });
    let capped = three.last() == Some(&9999.0) && five.last() == Some(&9999.0);
    claim(l, "delta0_loss_stays_below_1", none.iter().all(|&v| v < 1.0));
    claim(l, "delta3_and_delta5_hit_the_loss_cap", capped);
}

/// Records the spectral radius of `poly` at each α as series `name`, and
/// returns it.
fn radii(
    l: &mut ExperimentLog,
    name: &str,
    alphas: &[f64],
    poly: impl Fn(f64) -> Polynomial,
) -> Vec<f64> {
    let radii: Vec<f64> = alphas.iter().map(|&a| spectral_radius(&poly(a))).collect();
    l.push_series(name, radii.iter().copied());
    radii
}

/// Whether curve `fixed` is at least as close to `target` as `raw` at
/// every α.
fn pulls_toward(raw: &[f64], fixed: &[f64], target: &[f64]) -> bool {
    (0..target.len()).all(|i| (fixed[i] - target[i]).abs() <= (raw[i] - target[i]).abs())
}

/// Figure 5(b): largest companion eigenvalue magnitude vs α (×1.9 from
/// 0.01) at Δ = 5, τ_fwd = 10, τ_bkwd = 6 — with discrepancy, without,
/// and with T2 at D = 0.1 — plus the largest stable α with and without T2.
fn fig5b(l: &mut ExperimentLog) {
    let gamma = 0.1f64.powf(1.0 / 4.0);
    let disc = |a| char_poly_discrepancy(1.0, 5.0, a, 10, 6);
    let t2 = |a| char_poly_t2(1.0, 5.0, a, 10, 6, gamma);
    let alphas: Vec<f64> =
        successors(Some(0.01), |a| Some(a * 1.9)).take_while(|&a| a <= 1.0).collect();
    l.push_series("alpha", alphas.iter().copied());
    let raw = radii(l, "disc", &alphas, disc);
    let none = radii(l, "no_disc", &alphas, |a| char_poly_basic(1.0, a, 10));
    let fixed = radii(l, "t2", &alphas, t2);
    let (disc_max, t2_max) = (max_stable_alpha(&disc, 3.0, 1e-5), max_stable_alpha(&t2, 3.0, 1e-5));
    l.push_scalar("disc.max_stable_alpha", disc_max);
    l.push_scalar("t2.max_stable_alpha", t2_max);
    let above = raw.iter().zip(&fixed).all(|(d, t)| d >= t);
    claim(l, "t2_pulls_toward_no_discrepancy", pulls_toward(&raw, &fixed, &none));
    claim(l, "discrepancy_at_or_above_t2_everywhere", above);
    claim(l, "t2_stable_range_at_least_2x", t2_max >= 2.0 * disc_max);
}

/// Figure 6: cached microbatch activations per stage at P = 16, without
/// recompute and with 4 segments.
fn fig6(l: &mut ExperimentLog) {
    let am = ActivationModel { p: 16 };
    let (without, with) = (am.profile_no_recompute(), am.profile_recompute(4));
    let (total_without, total_with) = (am.total_no_recompute(), am.total_recompute(4));
    let reduction = total_without as f64 / total_with as f64;
    // Each segment's first stage keeps its full window, the stages after
    // it less.
    let heads =
        (0..16).all(|s| if s % 4 == 0 { with[s] == without[s] } else { with[s] < with[s - s % 4] });
    l.push_series("without", without.iter().map(|&v| v as f64));
    l.push_series("with", with.iter().map(|&v| v as f64));
    l.push_scalar("total_without", total_without as f64);
    l.push_scalar("total_with", total_with as f64);
    l.push_scalar("reduction", reduction);
    l.push_scalar("optimal_segment", am.optimal_segment() as f64);
    claim(l, "without_recompute_is_p_squared", total_without == 256);
    claim(l, "segment_heads_keep_their_window", heads);
    claim(l, "optimal_segment_is_sqrt_p", am.optimal_segment() == 4);
    claim(l, "recompute_at_least_halves_memory", reduction >= 2.0);
}

/// Figure 8: largest stable α vs Δ at τ_fwd = 40, τ_bkwd = 10, for the
/// original model and T2 at γ*.
fn fig8(l: &mut ExperimentLog) {
    let g = gamma_star(40, 10);
    let deltas = [-100.0, -50.0, -20.0, -5.0, 0.0, 5.0, 20.0, 50.0, 100.0];
    let threshold = |poly: &dyn Fn(f64) -> Polynomial| max_stable_alpha(poly, 3.0, 1e-5);
    let original = deltas.map(|d| threshold(&|a| char_poly_discrepancy(1.0, d, a, 40, 10)));
    let t2 = deltas.map(|d| threshold(&|a| char_poly_t2(1.0, d, a, 40, 10, g)));
    let ratio: Vec<f64> = original.iter().zip(&t2).map(|(o, t)| t / o).collect();
    // At Δ = 0 the ratio is 1 up to the threshold search's tolerance.
    let no_worse = ratio[4..].iter().all(|&r| r >= 1.0 - 1e-3);
    let worse = ratio[..4].iter().any(|&r| r < 1.0);
    l.push_scalar("gamma_star", g);
    l.push_series("delta", deltas);
    l.push_series("original", original);
    l.push_series("t2", t2);
    l.push_series("ratio", ratio);
    claim(l, "t2_no_worse_for_nonnegative_delta", no_worse);
    claim(l, "t2_worse_for_some_negative_delta", worse);
}

/// Figure 16: largest companion eigenvalue magnitude vs α (×2.3 from
/// 1e-3) with recompute (Δ = 10, Φ = −5, τ_fwd = 10, τ_bkwd = 1,
/// τ_recomp = 4): uncorrected, no discrepancy, no recompute, T2 at D = 0.1.
fn fig16(l: &mut ExperimentLog) {
    let d = 0.1f64.powf(1.0 / 9.0);
    let alphas: Vec<f64> =
        successors(Some(1e-3), |a| Some(a * 2.3)).take_while(|&a| a <= 1.0).collect();
    l.push_series("alpha", alphas.iter().copied());
    let raw = radii(l, "uncorrected", &alphas, |a| {
        char_poly_recompute(1.0, 10.0, -5.0, a, 10, 1, 4, 0.0)
    });
    let none = radii(l, "no_disc", &alphas, |a| char_poly_basic(1.0, a, 10));
    radii(l, "no_recompute", &alphas, |a| char_poly_t2(1.0, 10.0, a, 10, 1, 0.0));
    let t2 = radii(l, "t2", &alphas, |a| char_poly_recompute(1.0, 10.0, -5.0, a, 10, 1, 4, d));
    let ordered = (0..none.len()).all(|i| raw[i] >= t2[i] - 1e-3 && t2[i] >= none[i] - 1e-3);
    claim(l, "t2_pulls_toward_no_discrepancy", pulls_toward(&raw, &t2, &none));
    claim(l, "uncorrected_t2_no_discrepancy_ordered_within_1e-3", ordered);
}

/// Table 4: activation memory in units of M at P = L — the asymptotic
/// columns (GPipe at N = 16) and the exact profile sums at the optimal
/// segment.
fn table4(l: &mut ExperimentLog) {
    let ps = [16usize, 64, 107, 256];
    let am = ps.map(|p| ActivationModel { p });
    let exact = am.map(|am| (am.total_no_recompute(), am.total_recompute(am.optimal_segment())));
    let ratio = exact.map(|(no, rc)| rc as f64 / no as f64);
    let gpipe = am.map(|am| am.gpipe_totals(16));
    l.push_series("p", ps.map(|p| p as f64));
    l.push_series("gpipe", gpipe.map(|g| g.0));
    l.push_series("gpipe_rc", gpipe.map(|g| g.1));
    l.push_series("async", ps.map(|p| (p * p) as f64));
    l.push_series("async_rc", ps.map(|p| (p as f64).powf(1.5)));
    l.push_series("exact", exact.map(|e| e.0 as f64));
    l.push_series("exact_rc", exact.map(|e| e.1 as f64));
    l.push_series("ratio", ratio);
    claim(l, "gpipe_recompute_is_mpn_over_sqrt_n", gpipe.iter().all(|g| g.0 == 4.0 * g.1));
    // P^1.5/P² with its leading constant: ratio · √P within 10% of 2.
    let scaling = ps.iter().zip(ratio).all(|(&p, r)| (r * (p as f64).sqrt() - 2.0).abs() <= 0.2);
    claim(l, "exact_ratio_is_2_over_sqrt_p_within_10_percent", scaling);
}

/// Table 5: PipeMare's recompute/no-recompute activation ratio `1/√P` at
/// the stage counts of CIFAR10, ImageNet, IWSLT14 and WMT17, beside the
/// paper's and the exact ratio at the optimal segment.
fn table5(l: &mut ExperimentLog) {
    let (stages, paper) = ([107usize, 107, 93, 91], [0.097, 0.097, 0.104, 0.105]);
    let am = stages.map(|p| ActivationModel { p });
    let ours = am.map(|am| am.table5_ratio());
    let exact = |am: ActivationModel| am.total_recompute(am.optimal_segment()) as f64;
    l.push_series("stages", stages.map(|p| p as f64));
    l.push_series("paper", paper);
    l.push_series("ours", ours);
    l.push_series("exact_segment", am.map(|am| am.optimal_segment() as f64));
    l.push_series("exact_ratio", am.map(|am| exact(am) / am.total_no_recompute() as f64));
    claim(l, "matches_the_paper_within_5e-4", (0..4).all(|i| (ours[i] - paper[i]).abs() < 5e-4));
}

/// The γ ablation: largest stable α under γ ∈ {0, 0.3, γ*, 0.95} in nine
/// (τ_fwd, τ_bkwd, Δ) cells.
fn ablation_gamma(l: &mut ExperimentLog) {
    let cells: Vec<(usize, usize, f64)> = [(10, 2), (20, 5), (40, 10)]
        .iter()
        .flat_map(|&(f, b)| [2.0, 10.0, 50.0].map(|d| (f, b, d)))
        .collect();
    let sweep = |gamma: &dyn Fn(usize, usize) -> f64| -> Vec<f64> {
        let threshold = |&(f, b, d): &(usize, usize, f64)| {
            max_stable_alpha(&|a| char_poly_t2(1.0, d, a, f, b, gamma(f, b)), 3.0, 1e-5)
        };
        cells.iter().map(threshold).collect()
    };
    let [g0, g03, gs, g095] =
        [sweep(&|_, _| 0.0), sweep(&|_, _| 0.3), sweep(&gamma_star), sweep(&|_, _| 0.95)];
    let best = (0..9).filter(|&i| gs[i] >= g0[i].max(g03[i]).max(g095[i])).count();
    let beats_short = (0..9).all(|i| gs[i] > g0[i].max(g03[i]));
    l.push_series("tau_fwd", cells.iter().map(|c| c.0 as f64));
    l.push_series("tau_bkwd", cells.iter().map(|c| c.1 as f64));
    l.push_series("delta", cells.iter().map(|c| c.2));
    l.push_series("gamma_star", cells.iter().map(|c| gamma_star(c.0, c.1)));
    for (name, v) in [("g0", g0), ("g0.3", g03), ("g_star", gs), ("g0.95", g095)] {
        l.push_series(name, v);
    }
    claim(l, "gamma_star_beats_0_and_0.3_everywhere", beats_short);
    claim(l, "gamma_star_best_in_8_of_9_cells", best >= 8);
}

// ---------------------------------------------------------------------
// Training rows.

/// Every method on an image workload, PipeMare with T1 + T2:
/// `(method, warmup epochs, run)`.
fn image_methods(w: &ImageWorkload) -> Vec<(Method, usize, RunHistory)> {
    let pm = |m| m == Method::PipeMare;
    Method::ALL.iter().map(|&m| (m, 0, w.run(w.config(m, pm(m), pm(m)), 0))).collect()
}

/// Every method on a translation workload, PipeMare with T1 + T2 + T3.
fn translation_methods(w: &TranslationWorkload) -> Vec<(Method, usize, RunHistory)> {
    let pm = |m| m == Method::PipeMare;
    let warm = |m| if pm(m) { w.t3_epochs } else { 0 };
    Method::ALL.iter().map(|&m| (m, warm(m), w.run(w.config(m, pm(m), pm(m)), warm(m)))).collect()
}

/// Per method of a stage count: normalized throughput, weight + optimizer
/// MB, best metric, time to target.
type SweepPoint = [(f64, f64, f32, Option<f64>); 3];

/// Figures 2 and 15: every method at each stage count, with throughput
/// normalized to GPipe at the first count, memory over uniform stages and
/// time to (best of all − `gap`). `train(p, m)` returns a run and its
/// warmup epochs.
fn stage_sweep(
    l: &mut ExperimentLog,
    stages: &[usize],
    (n_micro, epochs, copies, param_mb, gap): (usize, usize, usize, f64, f32),
    train: impl Fn(usize, Method) -> (RunHistory, usize),
) -> Vec<SweepPoint> {
    let runs: Vec<_> = stages.iter().map(|&p| Method::ALL.map(|m| train(p, m))).collect();
    let best = runs.iter().flatten().map(|r| r.0.best_metric()).fold(f32::MIN, f32::max);
    let (target, tput_ref) = (best - gap, gpipe_bubble_throughput(stages[0], n_micro));
    let mm = MemoryModel { optimizer_copies: copies };
    l.push_scalar("target", target as f64);
    let mut out = Vec::new();
    for (&p, runs) in stages.iter().zip(&runs) {
        let (clk, fracs) = (PipelineClock::new(p, n_micro), vec![1.0 / p as f64; p]);
        out.push([0, 1, 2].map(|i| {
            let (m, (h, warm), k) =
                (Method::ALL[i], &runs[i], format!("p{p}.{}", key(Method::ALL[i])));
            let tput = match m {
                Method::GPipe => gpipe_bubble_throughput(p, n_micro),
                _ => amortized_throughput(m, *warm, epochs),
            } / tput_ref;
            let mb = mm.weight_opt_copies(m, &clk, &fracs, m == Method::PipeMare) * param_mb;
            l.push_scalar(&format!("{k}.tput"), tput);
            l.push_scalar(&format!("{k}.memory_mb"), mb);
            l.push_scalar(&format!("{k}.best"), h.best_metric() as f64);
            (tput, mb, h.best_metric(), reach(l, &k, h, target))
        }));
    }
    let all =
        |f: &dyn Fn(&SweepPoint, &SweepPoint) -> bool| out.windows(2).all(|w| f(&w[0], &w[1]));
    claim(l, "gpipe_throughput_falls", all(&|a, b| b[0].0 < a[0].0));
    claim(l, "pipedream_memory_grows", all(&|a, b| b[1].1 > a[1].1));
    claim(l, "gpipe_and_pipemare_memory_flat", all(&|a, b| a[0].1 == b[0].1 && a[2].1 == b[2].1));
    out
}

/// Figure 2: the IWSLT-like Transformer at P ∈ {6, 12, 24}.
fn fig2(l: &mut ExperimentLog) {
    let w = TranslationWorkload::iwslt_like();
    let params = w.model.param_len() as f64;
    let param_mb = params * 4.0 / 1e6;
    l.push_scalar("params", params);
    l.push_scalar("param_mb", param_mb);
    let shape = (w.n_micro, w.epochs, 4, param_mb, 0.4);
    let sweep = stage_sweep(l, &[6, 12, 24], shape, |p, m| {
        let (pm, warm) =
            (m == Method::PipeMare, if m == Method::PipeMare { w.t3_epochs } else { 0 });
        (w.run(w.config_at(m, pm, pm, p), warm), warm)
    });
    // Per stage count: [GPipe, PipeDream, PipeMare].
    claim(l, "pipemare_bleu_above_pipedream", sweep.iter().all(|s| s[2].2 > s[1].2));
    claim(l, "async_bleu_below_sync", sweep.iter().all(|s| s[1].2.max(s[2].2) < s[0].2));
    claim(l, "async_misses_the_target", sweep.iter().all(|s| s[1].3.or(s[2].3).is_none()));
}

/// Figure 15: the CIFAR-like CNN at P ∈ {8, 24}.
fn fig15(l: &mut ExperimentLog) {
    let w = ImageWorkload::cifar_like();
    let shape = (w.n_micro, w.epochs, 3, w.model.param_len() as f64 * 4.0 / 1e6, 1.0);
    let sweep = stage_sweep(l, &[8, 24], shape, |p, m| {
        let pm = m == Method::PipeMare;
        (w.run(w.config_at(m, pm, pm, p), 0), 0)
    });
    let (p8, p24) = (&sweep[0], &sweep[1]);
    let to_target = |i: usize| p8[i].3.unwrap_or(f64::INFINITY);
    claim(l, "all_reach_100_at_p8", p8.iter().all(|m| m.2 == 100.0));
    claim(l, "pipemare_beats_gpipe_to_target_at_p8", to_target(2) < to_target(0));
    claim(l, "pipemare_beats_pipedream_to_target_at_p8", to_target(2) < to_target(1));
    claim(l, "async_best_below_sync_at_p24", p24[1].2.max(p24[2].2) < p24[0].2);
}

/// Figures 4 and 10: Sync, T1, T1+T2 and T1+T2+T3 at `mult`× the base
/// stage counts, the first `cnn_rungs` on the CNN (T3: one warmup epoch)
/// and all four on the Transformer.
fn technique_ladder(l: &mut ExperimentLog, mult: usize, cnn_rungs: usize) -> [Vec<RunHistory>; 2] {
    let ladder = [
        ("sync", Method::GPipe, false, false, false),
        ("t1", Method::PipeMare, true, false, false),
        ("t1t2", Method::PipeMare, true, true, false),
        ("t1t2t3", Method::PipeMare, true, true, true),
    ];
    let (w, t) = (ImageWorkload::cifar_like(), TranslationWorkload::iwslt_like());
    l.push_scalar("cnn.stages", (mult * w.stages) as f64);
    l.push_scalar("transformer.stages", (mult * t.stages) as f64);
    let cnn = ladder[..cnn_rungs].iter().map(|&(name, m, t1, t2, t3)| {
        let h = w.run(w.config_at(m, t1, t2, mult * w.stages), usize::from(t3));
        history(l, &format!("cnn.{name}"), h)
    });
    let cnn = cnn.collect();
    let transformer = ladder.iter().map(|&(name, m, t1, t2, t3)| {
        let h = t.run(t.config_at(m, t1, t2, mult * t.stages), if t3 { t.t3_epochs } else { 0 });
        history(l, &format!("transformer.{name}"), h)
    });
    [cnn, transformer.collect()]
}

fn fig4(l: &mut ExperimentLog) {
    let [cnn, tr] = technique_ladder(l, 2, 4);
    let scores = |h: &RunHistory| h.best_metric() > 0.0;
    let only_t3 = scores(&tr[3]) && !scores(&tr[1]) && !scores(&tr[2]);
    let costs = epochs_cost(&cnn[0], 10.0 / 3.0) && epochs_cost(&cnn[2], 1.0);
    claim(l, "cnn_sync_reaches_100", cnn[0].best_metric() == 100.0);
    claim(l, "cnn_t1_diverges", cnn[1].diverged);
    claim(l, "cnn_t1t2_trains_8_epochs", !cnn[2].diverged && cnn[2].epochs.len() == 8);
    claim(l, "cnn_t3_first_epoch_above_t1t2", cnn[3].epochs[0].metric > cnn[2].epochs[0].metric);
    claim(l, "transformer_only_t1t2t3_scores", only_t3);
    claim(l, "epoch_costs_10_3_sync_1_async", costs);
}

fn fig10(l: &mut ExperimentLog) {
    let [cnn, tr] = technique_ladder(l, 1, 3);
    let first = |h: &RunHistory| h.epochs.iter().position(|e| e.metric > 0.0);
    let t3_first =
        first(&tr[3]).is_some_and(|e| tr[1..3].iter().all(|h| first(h).is_none_or(|o| o > e)));
    claim(l, "cnn_t1_survives", !cnn[1].diverged);
    claim(l, "cnn_t1t2_best_at_least_t1", cnn[2].best_metric() >= cnn[1].best_metric());
    claim(l, "cnn_t1t2_ends_at_100", cnn[2].final_metric() == 100.0);
    claim(l, "transformer_t1_scores", tr[1].best_metric() > 0.0);
    claim(l, "transformer_t1t2t3_scores_first", t3_first);
}

/// Figure 7: naive asynchronous training of the CNN at a fixed LR of 0.8,
/// with its parameter norm per epoch (capped at 9.99e5).
fn fig7(l: &mut ExperimentLog) {
    let w = ImageWorkload::cifar_like();
    let runs = [
        ("sync", Method::GPipe, w.stages),
        ("discrepancy", Method::PipeMare, w.stages),
        ("no_discrepancy", Method::PipeDream, w.stages),
        ("no_discrepancy_4x", Method::PipeDream, 4 * w.stages),
    ];
    let [sync, disc, no_disc, no_disc_4x] = runs.map(|(name, method, stages)| {
        let mut cfg =
            TrainConfig::gpipe(stages, w.n_micro, w.optimizer(), Box::new(ConstantLr(0.8)));
        cfg.mode = TrainMode::Pipeline(method);
        let h = w.run(cfg, 0);
        let norms: Vec<f64> = h.epochs.iter().map(|e| e.param_norm.min(9.99e5) as f64).collect();
        l.push_series(&format!("{name}.norm"), norms.iter().copied());
        (history(l, name, h).diverged, norms)
    });
    let growth = |n: &[f64]| n[n.len() - 1] / n[0];
    claim(l, "discrepancy_diverges_in_epoch_1", disc.0 && disc.1.len() == 1);
    claim(l, "no_discrepancy_survives", !no_disc.0);
    claim(l, "sync_norm_grows_least", growth(&sync.1) < growth(&no_disc.1));
    claim(l, "4x_stages_end_with_a_larger_norm", no_disc_4x.1.last() > no_disc.1.last());
}

/// Figure 9: every method on the ImageNet-like and WMT-like workloads.
fn fig9(l: &mut ExperimentLog) {
    let imagenet = image_methods(&ImageWorkload::imagenet_like());
    let wmt = translation_methods(&TranslationWorkload::wmt_like());
    for (task, (m, _, h)) in
        imagenet.iter().map(|r| ("imagenet", r)).chain(wmt.iter().map(|r| ("wmt", r)))
    {
        history(l, &format!("{task}.{}", key(*m)), h.clone());
    }
    let (gpipe, pipemare) = (&imagenet[0].2, &imagenet[2].2);
    let costs = epochs_cost(gpipe, 10.0 / 3.0) && epochs_cost(pipemare, 1.0);
    claim(l, "epoch_costs_10_3_sync_1_async", costs);
    claim(l, "pipedream_scores_0_bleu_on_wmt", wmt[1].2.best_metric() == 0.0);
    let close = pipemare.best_metric() >= gpipe.best_metric() - 1.0;
    claim(l, "pipemare_within_1_of_sync_on_imagenet", close);
}

/// Figure 11: the ResNet-152 stand-in at one weight unit per stage, LR
/// 0.02, N = 4: synchronous, T1 alone (K = 48), T1+T2 with D = 0.5.
fn fig11(l: &mut ExperimentLog) {
    let ds = SyntheticImages::cifar_like(160, 80, 42).generate();
    let model = CifarResNet::new(ResNetConfig::resnet152_standin(10));
    let stages = model.weight_units().len();
    l.push_scalar("params", model.param_len() as f64);
    l.push_scalar("stages", stages as f64);
    let runs = [
        ("sync", Method::GPipe, None, None),
        ("t1", Method::PipeMare, Some(48), None),
        ("t1t2", Method::PipeMare, Some(48), Some(0.5)),
    ];
    let [sync, t1, t1t2] = runs.map(|(name, method, k, d)| {
        let sgd = OptimizerKind::resnet_momentum(5e-4);
        let mut cfg = TrainConfig::gpipe(stages, 4, sgd, Box::new(ConstantLr(0.02)));
        cfg.mode = TrainMode::Pipeline(method);
        (cfg.t1, cfg.t2_decay) = (k.map(T1Rescheduler::new), d);
        let spec = RunSpec { epochs: 8, minibatch: 20, eval_n: 100, seed: 3, ..RunSpec::default() };
        history(l, name, train(&model, &ds, cfg, spec).expect("every minibatch fills N"))
    });
    claim(l, "sync_reaches_100", sync.best_metric() == 100.0);
    claim(l, "t1_alone_diverges", t1.diverged);
    claim(l, "t1t2_never_diverges", !t1t2.diverged);
    claim(l, "t1t2_within_1_of_sync", t1t2.best_metric() >= sync.best_metric() - 1.0);
}

/// Figures 12 and 13: PipeMare T1+T2 on the CNN and T1+T2+T3 on the
/// Transformer, with `set(config, x)` per `x` of `knob`.
fn knob_sweep(
    l: &mut ExperimentLog,
    (knob, cnn, tr): (&str, &[f64], &[f64]),
    set: impl Fn(&mut TrainConfig, f64),
) -> [Vec<RunHistory>; 2] {
    let (w, t) = (ImageWorkload::cifar_like(), TranslationWorkload::iwslt_like());
    let with = |mut cfg: TrainConfig, x| {
        set(&mut cfg, x);
        cfg
    };
    let cnn = cnn.iter().map(|&x| {
        let h = w.run(with(w.config(Method::PipeMare, true, true), x), 0);
        history(l, &format!("cnn.{knob}{x}"), h)
    });
    let cnn = cnn.collect();
    let tr = tr.iter().map(|&x| {
        let h = t.run(with(t.config(Method::PipeMare, true, true), x), t.t3_epochs);
        history(l, &format!("transformer.{knob}{x}"), h)
    });
    [cnn, tr.collect()]
}

/// Figure 12: the T1 annealing steps K.
fn fig12(l: &mut ExperimentLog) {
    let knob = ("k", &[5.0, 20.0, 160.0][..], &[15.0, 120.0, 480.0][..]);
    let [cnn, tr] = knob_sweep(l, knob, |c, k| c.t1 = Some(T1Rescheduler::new(k as usize)));
    let rises = |r: &[RunHistory]| r.windows(2).all(|w| w[0].best_metric() < w[1].best_metric());
    claim(l, "transformer_best_rises_with_k", rises(&tr));
    claim(l, "cnn_best_rises_with_k", rises(&cnn));
}

/// Figure 13: the T2 decay D (0 turns T2 off).
fn fig13(l: &mut ExperimentLog) {
    let knob = ("d", &[0.0, 0.2, 0.5, 0.7][..], &[0.0, 0.01, 0.1, 0.5][..]);
    let [cnn, tr] = knob_sweep(l, knob, |c, d| c.t2_decay = (d > 0.0).then_some(d));
    let above_d0 = |r: &[RunHistory]| r.iter().all(|h| h.final_metric() > cnn[0].final_metric());
    let bleu = tr.iter().map(RunHistory::best_metric);
    let spread = bleu.clone().fold(f32::MIN, f32::max) - bleu.fold(f32::MAX, f32::min);
    claim(l, "cnn_d0.2_and_d0.5_end_above_d0", above_d0(&cnn[1..3]));
    claim(l, "cnn_every_d_ends_above_d0", above_d0(&cnn[1..]));
    claim(l, "transformer_best_spans_at_most_2.5_over_d", spread <= 2.5);
}

/// Figure 14: PipeMare T1+T2 on the IWSLT-like task over the T3 warmup
/// epochs, with time to 0.99 × the best BLEU of all.
fn fig14(l: &mut ExperimentLog) {
    let w = TranslationWorkload::iwslt_like();
    let runs = [0, 1, 3, 5].map(|warm| (warm, w.run(w.config(Method::PipeMare, true, true), warm)));
    let target = runs.iter().map(|r| r.1.best_metric()).fold(f32::MIN, f32::max) * 0.99;
    l.push_scalar("target", target as f64);
    let mut fastest = (f64::INFINITY, None);
    for (warm, h) in runs {
        let time = reach(l, &format!("warmup{warm}"), &h, target);
        history(l, &format!("warmup{warm}"), h);
        if let Some(t) = time.filter(|&t| t < fastest.0) {
            fastest = (t, Some(warm));
        }
    }
    claim(l, "1_or_3_warmup_epochs_reach_the_target_first", matches!(fastest.1, Some(1 | 3)));
}

/// Figures 17 and 18: PipeMare T1 with (`t2`) or without T2 and `warm` T3
/// epochs, per `(name, t2, warm)`, with 0 (no recompute), 2 and 4
/// checkpoint segments.
fn recompute_grid(
    l: &mut ExperimentLog,
    variants: &[(&str, bool, usize)],
    config: impl Fn(bool) -> TrainConfig,
    run: impl Fn(TrainConfig, usize) -> RunHistory,
) -> Vec<[RunHistory; 3]> {
    let grid = variants.iter().map(|&(name, t2, warm)| {
        [0, 2, 4].map(|segments| {
            let mut cfg = config(t2);
            cfg.recompute = (segments > 0).then_some(RecomputeCfg { segments, t2 });
            history(l, &format!("{name}.ckpt{segments}"), run(cfg, warm))
        })
    });
    grid.collect()
}

fn fig17(l: &mut ExperimentLog) {
    let w = ImageWorkload::cifar_like();
    let variants = [("t1", false, 0), ("t1t2", true, 0)];
    let config = |t2| w.config(Method::PipeMare, true, t2);
    let grid = recompute_grid(l, &variants, config, |cfg, warm| w.run(cfg, warm));
    let keeps = |c: usize| grid.iter().all(|r| r[c].final_metric() >= r[0].final_metric());
    claim(l, "2_and_4_checkpoints_end_at_or_above_none", keeps(1) && keeps(2));
    claim(l, "4_checkpoints_end_at_or_above_none", keeps(2));
}

fn fig18(l: &mut ExperimentLog) {
    let w = TranslationWorkload::iwslt_like();
    let variants = [("t1", false, 0), ("t1t2", true, 0), ("t1t2t3", true, w.t3_epochs)];
    let config = |t2| w.config(Method::PipeMare, true, t2);
    let grid = recompute_grid(l, &variants, config, |cfg, warm| w.run(cfg, warm));
    let gap = |r: &[RunHistory; 3], c: usize| r[c].best_metric() - r[0].best_metric();
    let within_5 = grid.iter().all(|r| gap(r, 1).abs() <= 5.0 && gap(r, 2).abs() <= 5.0);
    claim(l, "recompute_best_within_5_bleu_of_none", within_5);
    claim(l, "t1_recompute_scores_below_none", gap(&grid[0], 1).min(gap(&grid[0], 2)) < 0.0);
}

/// Figure 19 on one task: synchronous, Hogwild!-style delays (each
/// stage's mean pipeline delay) and Hogwild with T1.
fn hogwild(
    l: &mut ExperimentLog,
    task: &str,
    delays: HogwildDelays,
    config: impl Fn(Method, bool) -> TrainConfig,
    run: impl Fn(TrainConfig) -> RunHistory,
) -> [RunHistory; 3] {
    [("sync", false, false), ("hogwild", true, false), ("hogwild_t1", true, true)].map(
        |(name, hog, t1)| {
            let mut cfg = config(if hog { Method::PipeMare } else { Method::GPipe }, t1);
            if hog {
                cfg.mode = TrainMode::Hogwild(delays.clone());
            }
            history(l, &format!("{task}.{name}"), run(cfg))
        },
    )
}

fn fig19(l: &mut ExperimentLog) {
    let (w, t) = (ImageWorkload::cifar_like(), TranslationWorkload::iwslt_like());
    let delays = HogwildDelays::from_pipeline_profile(w.stages, w.n_micro);
    let cnn = hogwild(l, "cnn", delays, |m, t1| w.config(m, t1, false), |c| w.run(c, 0));
    let delays = HogwildDelays::from_pipeline_profile(t.stages, t.n_micro);
    let tr = hogwild(l, "transformer", delays, |m, t1| t.config(m, t1, false), |c| t.run(c, 0));
    let lags = cnn[1].epochs[0].metric < cnn[0].epochs[0].metric;
    claim(l, "cnn_all_reach_100", cnn.iter().all(|h| h.best_metric() == 100.0));
    claim(l, "cnn_hogwild_trails_sync_in_epoch_1", lags);
    claim(l, "cnn_hogwild_ends_below_sync", cnn[1].final_metric() < cnn[0].final_metric());
    claim(l, "transformer_hogwild_best_below_sync", tr[1].best_metric() < tr[0].best_metric());
    claim(l, "transformer_t1_raises_hogwild_best", tr[2].best_metric() > tr[1].best_metric());
}

/// One run of Table 2 or 3: best metric, time to target, speedup,
/// throughput and memory relative to the baseline.
#[derive(Clone, Copy)]
struct TaskRow {
    best: f32,
    time: Option<f64>,
    speedup: Option<f64>,
    tput: f64,
    memory: f64,
}

/// Records one run of Table 2 or 3 under `k`: best metric, time and
/// epochs to `target`, speedup `anchor / time`, throughput and memory.
fn task_row(
    l: &mut ExperimentLog,
    k: &str,
    h: &RunHistory,
    (target, anchor): (f32, Option<f64>),
    tput: f64,
    memory: f64,
) -> TaskRow {
    l.push_scalar(&format!("{k}.best"), h.best_metric() as f64);
    let time = reach(l, k, h, target);
    let speedup = anchor.zip(time).map(|(a, t)| a / t);
    if let Some(s) = speedup {
        l.push_scalar(&format!("{k}.speedup"), s);
    }
    l.push_scalar(&format!("{k}.tput"), tput);
    l.push_scalar(&format!("{k}.memory"), memory);
    TaskRow { best: h.best_metric(), time, speedup, tput, memory }
}

/// One task of Table 2: every method against (best of all − `gap`), with
/// speedup over GPipe and memory relative to GPipe's over uniform stages.
fn end_to_end(
    l: &mut ExperimentLog,
    task: &str,
    runs: &[(Method, usize, RunHistory)],
    (gap, copies): (f32, usize),
    (stages, n_micro, epochs): (usize, usize, usize),
) -> Vec<TaskRow> {
    let target = runs.iter().map(|r| r.2.best_metric()).fold(f32::MIN, f32::max) - gap;
    let gpipe = runs[0].2.time_to_target(target);
    let (clk, fracs) = (PipelineClock::new(stages, n_micro), vec![1.0 / stages as f64; stages]);
    let mm = MemoryModel { optimizer_copies: copies };
    l.push_scalar(&format!("{task}.target"), target as f64);
    let row = |(m, warm, h): &(Method, usize, RunHistory)| {
        let memory = mm.relative_to_gpipe(*m, &clk, &fracs, *m == Method::PipeMare);
        let tput = amortized_throughput(*m, *warm, epochs);
        task_row(l, &format!("{task}.{}", key(*m)), h, (target, gpipe), tput, memory)
    };
    runs.iter().map(row).collect()
}

/// Table 2: every method on the four task stand-ins.
fn table2(l: &mut ExperimentLog) {
    let image = |l: &mut ExperimentLog, task, w: ImageWorkload| {
        end_to_end(l, task, &image_methods(&w), (1.0, 3), (w.stages, w.n_micro, w.epochs))
    };
    let text = |l: &mut ExperimentLog, task, w: TranslationWorkload| {
        end_to_end(l, task, &translation_methods(&w), (0.4, 4), (w.stages, w.n_micro, w.epochs))
    };
    let tasks = [
        image(l, "cifar", ImageWorkload::cifar_like()),
        image(l, "imagenet", ImageWorkload::imagenet_like()),
        text(l, "iwslt", TranslationWorkload::iwslt_like()),
        text(l, "wmt", TranslationWorkload::wmt_like()),
    ];
    // Per method, its row on each task.
    let [gpipe, pipedream, pipemare] = [0, 1, 2].map(|m| tasks.each_ref().map(|t| t[m]));
    let paper_memory = [4.0 / 3.0, 4.0 / 3.0, 1.25, 1.25];
    let memory = (0..4).all(|t| (pipemare[t].memory - paper_memory[t]).abs() < 1e-9);
    let most = (0..4).all(|t| pipedream[t].memory > gpipe[t].memory.max(pipemare[t].memory));
    let gpipe_ok = gpipe.iter().all(|g| g.time.is_some() && (g.tput - 0.3).abs() < 1e-9);
    let speedup = pipemare[0].speedup.is_some_and(|s| s > 1.0);
    claim(l, "cifar_pipemare_beats_gpipe_to_target", speedup);
    claim(l, "pipemare_memory_4_3_images_5_4_translation", memory);
    claim(l, "pipedream_needs_the_most_memory", most);
    claim(
        l,
        "pipedream_scores_0_bleu_on_translation",
        pipedream[2].best + pipedream[3].best == 0.0,
    );
    claim(l, "gpipe_reaches_every_target_at_0.3", gpipe_ok);
    claim(l, "pipemare_reaches_the_other_targets", pipemare[1..].iter().all(|r| r.time.is_some()));
}

/// One task of Table 3: PipeMare's `(name, warmup epochs, run)` variants
/// against (best of all − `gap`), with speedup over a GPipe anchor that
/// needs the fewest epochs any variant needs at 0.3 throughput, and
/// memory relative to `copies` weight copies (T2 adds one).
fn ablation(
    l: &mut ExperimentLog,
    task: &str,
    runs: &[(&str, usize, RunHistory)],
    (gap, copies, epochs): (f32, f64, usize),
) -> Vec<TaskRow> {
    let target = runs.iter().map(|r| r.2.best_metric()).fold(f32::MIN, f32::max) - gap;
    let anchor = runs.iter().filter_map(|r| r.2.epochs_to_target(target)).min();
    l.push_scalar(&format!("{task}.target"), target as f64);
    let row = |(name, warm, h): &(&str, usize, RunHistory)| {
        let tput = amortized_throughput(Method::PipeMare, *warm, epochs);
        let memory = (copies + flag(name.contains("t2"))) / copies;
        let anchor = anchor.map(|e| e as f64 / 0.3);
        task_row(l, &format!("{task}.{name}"), h, (target, anchor), tput, memory)
    };
    runs.iter().map(row).collect()
}

/// Table 3: PipeMare with T1, T2 and T1+T2 on the CNN and the IWSLT-like
/// Transformer, and T1+T2+T3 on the Transformer.
fn table3(l: &mut ExperimentLog) {
    let (w, t) = (ImageWorkload::cifar_like(), TranslationWorkload::iwslt_like());
    let variants = [("t1", true, false), ("t2", false, true), ("t1t2", true, true)];
    let runs =
        variants.map(|(name, t1, t2)| (name, 0, w.run(w.config(Method::PipeMare, t1, t2), 0)));
    let c = ablation(l, "cifar", &runs, (1.0, 3.0, w.epochs));
    let variants =
        [("t1", true, false), ("t2", false, true), ("t1t2", true, true), ("t1t2t3", true, true)];
    let runs = variants.map(|(name, t1, t2)| {
        let warm = if name == "t1t2t3" { t.t3_epochs } else { 0 };
        (name, warm, t.run(t.config(Method::PipeMare, t1, t2), warm))
    });
    let i = ablation(l, "iwslt", &runs, (0.4, 4.0, t.epochs));
    claim(l, "cifar_t1t2_best_at_least_t1_and_t2", c[2].best >= c[0].best.max(c[1].best));
    claim(l, "cifar_t1t2_beats_the_gpipe_anchor", c[2].speedup.is_some_and(|s| s > 1.0));
    claim(l, "cifar_t1_misses_the_target", c[0].time.is_none());
    claim(l, "iwslt_t2_scores_0_bleu", i[1].best == 0.0);
    claim(l, "iwslt_t1t2_best_at_least_t1", i[2].best >= i[0].best);
    claim(l, "iwslt_t1_reaches_the_target", i[0].time.is_some());
    claim(l, "iwslt_t3_raises_the_best_over_t1t2", i[3].best > i[2].best);
    claim(l, "t3_throughput_within_0.02_of_0.6", (i[3].tput - 0.6).abs() <= 0.02);
}

/// The partitioning ablation: PipeMare T1+T2 on the CNN with stages cut
/// by weight-unit count (the paper's) or by element count: PipeDream's
/// stash in weight copies, the largest stage fraction, best accuracy.
fn ablation_partitioning(l: &mut ExperimentLog) {
    let w = ImageWorkload::cifar_like();
    let (clk, mm) = (PipelineClock::new(w.stages, w.n_micro), MemoryModel { optimizer_copies: 3 });
    let uniform = w.stages as f64 / w.n_micro as f64;
    l.push_scalar("uniform_stash", uniform);
    let schemes = [("unit_count", false), ("element_balanced", true)];
    let [unit, element] = schemes.map(|(name, by_elements)| {
        let config = || TrainConfig {
            partition_by_elements: by_elements,
            ..w.config(Method::PipeMare, true, true)
        };
        let fracs = PipelineTrainer::new(&w.model, config(), w.seed).stage_fracs();
        let stash = mm.weight_opt_copies(Method::PipeDream, &clk, &fracs, false) - 3.0;
        let best = w.run(config(), 0).best_metric();
        l.push_scalar(&format!("{name}.stash"), stash);
        l.push_scalar(&format!("{name}.max_frac"), fracs.iter().copied().fold(0.0, f64::max));
        l.push_scalar(&format!("{name}.best"), best as f64);
        (stash, best)
    });
    claim(l, "unit_count_stashes_less", unit.0 < element.0);
    claim(
        l,
        "element_balanced_stash_is_p_over_n_within_1e-3",
        (element.0 / uniform - 1.0).abs() <= 1e-3,
    );
    claim(l, "unit_count_best_at_least_element_balanced", unit.1 >= element.1);
}
