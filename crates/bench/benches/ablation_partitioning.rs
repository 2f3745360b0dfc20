//! Design-choice ablation: stage partitioning scheme.
//!
//! The paper divides the model's *weight units* evenly across stages
//! (§4.1); an alternative is dividing raw parameter elements evenly.
//! The choice matters twice: (1) PipeDream's stashing cost is the
//! delay-weighted parameter mass, so unit-count partitioning of a
//! back-loaded ResNet is much cheaper than the uniform `P/N` estimate;
//! (2) the delay profile seen by each parameter changes, which shifts the
//! stability boundary slightly.

use pipemare_bench::report::{banner, table_header};
use pipemare_bench::workloads::ImageWorkload;
use pipemare_core::PipelineTrainer;
use pipemare_pipeline::{MemoryModel, Method, PipelineClock};

fn main() {
    banner(
        "Ablation: partitioning scheme",
        "Unit-count (paper) vs element-balanced stages on the ResNet-style model",
    );
    let w = ImageWorkload::cifar_like();
    let clk = PipelineClock::new(w.stages, w.n_micro);
    let mm = MemoryModel { optimizer_copies: 3 };

    table_header(&[("scheme", 16), ("PD stash (xW)", 14), ("max frac", 9), ("best acc%", 10)]);
    for by_elements in [false, true] {
        let mut cfg = w.config(Method::PipeMare, true, true);
        cfg.partition_by_elements = by_elements;
        let trainer = PipelineTrainer::new(&w.model, cfg, w.seed);
        let fracs = trainer.stage_fracs();
        let stash = mm.weight_opt_copies(Method::PipeDream, &clk, &fracs, false) - 3.0;
        let max_frac = fracs.iter().cloned().fold(0.0f64, f64::max);
        let mut cfg2 = w.config(Method::PipeMare, true, true);
        cfg2.partition_by_elements = by_elements;
        let h = w.run(cfg2, 0);
        let scheme = if by_elements { "element-balanced" } else { "unit-count" };
        println!("{scheme:>16} {stash:>14.2} {max_frac:>9.3} {:>10.1}", h.best_metric());
    }
    println!("\nExpected: unit-count partitioning concentrates the ResNet's late, large");
    println!("weights on low-delay stages, giving a much smaller PipeDream stash than the");
    println!(
        "uniform P/N = {:.1} estimate, at comparable accuracy.",
        w.stages as f64 / w.n_micro as f64
    );
}
