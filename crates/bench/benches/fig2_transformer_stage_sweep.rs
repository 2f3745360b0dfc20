//! Figure 2: the impact of the number of pipeline stages on throughput,
//! weight + optimizer memory, final model quality, and time-to-target
//! BLEU for the Transformer translation task, across GPipe, PipeDream
//! and PipeMare. GPipe's throughput and PipeDream's memory degrade
//! linearly with stage count; PipeMare pays neither cost while staying
//! competitive on quality.

use pipemare_bench::report::{banner, opt_fmt, table_header};
use pipemare_bench::workloads::TranslationWorkload;
use pipemare_core::stats::amortized_throughput;
use pipemare_nn::TrainModel;
use pipemare_pipeline::{gpipe_bubble_throughput, MemoryModel, Method, PipelineClock};

fn main() {
    banner("Figure 2", "Transformer stage sweep: throughput, memory, best BLEU, time-to-target");
    let w = TranslationWorkload::iwslt_like();
    let stage_counts = [6usize, 12, 24];
    let param_mb = w.model.param_len() as f64 * 4.0 / 1e6;
    let mm = MemoryModel { optimizer_copies: 4 }; // AdamW
    println!(
        "model: {} params ({param_mb:.2} MB), N = {} microbatches\n",
        w.model.param_len(),
        w.n_micro
    );

    // Throughput normalized to GPipe at the smallest stage count, as in
    // the paper's leftmost panel.
    let tput_ref = gpipe_bubble_throughput(stage_counts[0], w.n_micro);

    // (stages, method, throughput, memory, best metric, time-to-target).
    type SweepRow = (usize, &'static str, f64, f64, f32, Option<f64>);
    let mut results: Vec<SweepRow> = Vec::new();
    let mut best_overall = f32::MIN;
    let mut histories = Vec::new();
    for &p in &stage_counts {
        for method in Method::ALL {
            let (t1, t2, warm) = match method {
                Method::PipeMare => (true, true, w.t3_epochs),
                _ => (false, false, 0),
            };
            let cfg = w.config_at(method, t1, t2, p);
            let h = w.run(cfg, warm);
            best_overall = best_overall.max(h.best_metric());
            histories.push((p, method, warm, h));
        }
    }
    let target = best_overall - 0.4; // the paper's BLEU target gap
    for (p, method, warm, h) in &histories {
        let clk = PipelineClock::new(*p, w.n_micro);
        let fracs = vec![1.0 / *p as f64; *p];
        let tput = match method {
            Method::GPipe => gpipe_bubble_throughput(*p, w.n_micro) / tput_ref,
            _ => amortized_throughput(*method, *warm, w.epochs) / tput_ref,
        };
        let mem_mb =
            mm.weight_opt_copies(*method, &clk, &fracs, *method == Method::PipeMare) * param_mb;
        results.push((*p, method.name(), tput, mem_mb, h.best_metric(), h.time_to_target(target)));
    }

    table_header(&[
        ("stages", 7),
        ("method", 10),
        ("norm tput", 10),
        ("W+opt MB", 9),
        ("best BLEU", 10),
        ("t-to-target", 12),
    ]);
    for (p, name, tput, mem, bleu, ttt) in &results {
        println!("{p:>7} {name:>10} {tput:>10.2} {mem:>9.2} {bleu:>10.1} {:>12}", opt_fmt(*ttt, 1));
    }
    println!("\n(target BLEU = best across methods - 0.4 = {target:.1})");
    println!("Paper shape: PipeMare/PipeDream throughput grows ~linearly in stages relative");
    println!("to GPipe; PipeDream memory grows with stages while GPipe/PipeMare stay flat;");
    println!("PipeMare's BLEU stays near the best while PipeDream's collapses.");
}
