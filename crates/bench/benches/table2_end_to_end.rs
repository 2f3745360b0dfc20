//! Table 2: the end-to-end comparison — best metric, target metric,
//! speedup-to-target over GPipe, epochs-to-target, throughput, and
//! weight+optimizer memory — for all four task stand-ins × three methods.

use pipemare_bench::report::{banner, opt_fmt, speedup_fmt, table_header};
use pipemare_bench::workloads::{ImageWorkload, TranslationWorkload};
use pipemare_core::stats::amortized_throughput;
use pipemare_core::RunHistory;
use pipemare_pipeline::{MemoryModel, Method, PipelineClock};

struct Row {
    dataset: &'static str,
    method: &'static str,
    best: f32,
    target: f32,
    speedup: String,
    epochs_to: Option<usize>,
    throughput: f64,
    memory_rel: f64,
}

#[allow(clippy::too_many_arguments)]
fn rows_for(
    dataset: &'static str,
    histories: &[(Method, usize, RunHistory)],
    target_gap: f32,
    opt_copies: usize,
    stages: usize,
    n_micro: usize,
    stage_fracs: &[f64],
    total_epochs: usize,
) -> Vec<Row> {
    let best = histories.iter().map(|(_, _, h)| h.best_metric()).fold(f32::MIN, f32::max);
    let target = best - target_gap;
    let gpipe_time = histories
        .iter()
        .find(|(m, _, _)| *m == Method::GPipe)
        .and_then(|(_, _, h)| h.time_to_target(target));
    let clk = PipelineClock::new(stages, n_micro);
    let mm = MemoryModel { optimizer_copies: opt_copies };
    histories
        .iter()
        .map(|(m, warm, h)| Row {
            dataset,
            method: m.name(),
            best: h.best_metric(),
            target,
            speedup: speedup_fmt(gpipe_time, h.time_to_target(target)),
            epochs_to: h.epochs_to_target(target),
            throughput: amortized_throughput(*m, *warm, total_epochs),
            memory_rel: mm.relative_to_gpipe(*m, &clk, stage_fracs, *m == Method::PipeMare),
        })
        .collect()
}

fn main() {
    banner("Table 2", "End-to-end comparison on the four task stand-ins (3 methods each)");
    let mut all_rows: Vec<Row> = Vec::new();

    // Image tasks (SGD + momentum -> 3 optimizer copies).
    for (name, w) in
        [("CIFAR10*", ImageWorkload::cifar_like()), ("ImageNet*", ImageWorkload::imagenet_like())]
    {
        let mut hs = Vec::new();
        for method in Method::ALL {
            let (t1, t2) = (method == Method::PipeMare, method == Method::PipeMare);
            let cfg = w.config(method, t1, t2);
            let h = w.run(cfg, 0);
            hs.push((method, 0usize, h));
        }
        let fracs = vec![1.0 / w.stages as f64; w.stages];
        all_rows.extend(rows_for(name, &hs, 1.0, 3, w.stages, w.n_micro, &fracs, w.epochs));
    }

    // Translation tasks (AdamW -> 4 optimizer copies; PipeMare uses T3).
    for (name, w) in [
        ("IWSLT14*", TranslationWorkload::iwslt_like()),
        ("WMT17*", TranslationWorkload::wmt_like()),
    ] {
        let mut hs = Vec::new();
        for method in Method::ALL {
            let (t1, t2, warm) = match method {
                Method::PipeMare => (true, true, w.t3_epochs),
                _ => (false, false, 0),
            };
            let cfg = w.config(method, t1, t2);
            let h = w.run(cfg, warm);
            hs.push((method, warm, h));
        }
        let fracs = vec![1.0 / w.stages as f64; w.stages];
        all_rows.extend(rows_for(name, &hs, 0.4, 4, w.stages, w.n_micro, &fracs, w.epochs));
    }

    table_header(&[
        ("dataset", 10),
        ("method", 10),
        ("best", 7),
        ("target", 7),
        ("speedup", 8),
        ("ep-to-tgt", 10),
        ("tput", 6),
        ("W+opt", 7),
    ]);
    for r in &all_rows {
        println!(
            "{:>10} {:>10} {:>7.1} {:>7.1} {:>8} {:>10} {:>6.2} {:>6.2}X",
            r.dataset,
            r.method,
            r.best,
            r.target,
            r.speedup,
            opt_fmt(r.epochs_to.map(|e| e as f64), 0),
            r.throughput,
            r.memory_rel,
        );
    }
    println!("\n(*synthetic stand-ins; see DESIGN.md §4)");
    println!("Paper shape: PipeMare matches the best metric within the target band and wins");
    println!("time-to-target; PipeDream fails the Transformer tasks while using the most");
    println!("weight+optimizer memory; GPipe reaches quality but at ~0.3x throughput.");
}
