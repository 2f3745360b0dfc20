//! Hardware cost explorer: delay schedules, throughput and memory models,
//! plus a real multi-threaded pipeline validating the bubble penalty.
//!
//! Run with: `cargo run --release --example pipeline_costs`

use std::time::Duration;

use pipemare::pipeline::{
    gpipe_bubble_throughput, gpipe_equal_budget_throughput, run_pipeline, ActivationLedger,
    ActivationModel, MemoryModel, Method, PipelineClock, PipelinePlan, Sleep,
};
use pipemare::telemetry::NullRecorder;

fn main() {
    // Figure 1's pipelining-mode diagrams from the plans' unit slots.
    for method in [Method::GPipe, Method::PipeMare] {
        let plan = PipelinePlan::for_method(method, 3, 1, 3);
        println!(
            "{} schedule ({} slots, {} bubbles, {:.0}% utilization):",
            method.name(),
            plan.slots(),
            plan.bubbles(),
            100.0 * plan.utilization()
        );
        for row in plan.render() {
            println!("  {row}");
        }
        println!();
    }

    // Delay structure (Table 1): τ_fwd,i = (2(P−i)+1)/N.
    let clk = PipelineClock::new(8, 4);
    println!("Per-stage nominal delays (P = 8, N = 4):");
    for s in 0..8 {
        println!(
            "  stage {s}: τ_fwd = {:.2}, τ_bkwd(PipeMare) = {:.2}, τ_bkwd(PipeDream) = {:.2}",
            clk.nominal_tau_fwd(s),
            clk.nominal_tau_bkwd(Method::PipeMare, s),
            clk.nominal_tau_bkwd(Method::PipeDream, s)
        );
    }

    // Throughput models.
    println!("\nGPipe bubble throughput N/(N+P−1):");
    for p in [8usize, 32, 128] {
        println!("  P = {p:>3}, N = 4: {:.3}", gpipe_bubble_throughput(p, 4));
    }
    println!(
        "GPipe equal-budget throughput (App. A.3): {:.2} (recompute: {:.2})",
        gpipe_equal_budget_throughput(false),
        gpipe_equal_budget_throughput(true)
    );

    // Memory model (Table 2 methodology).
    let fracs = vec![1.0 / 8.0; 8];
    let adam = MemoryModel { optimizer_copies: 4 };
    println!("\nWeight+optimizer memory relative to GPipe (Adam, uniform weights):");
    for m in Method::ALL {
        println!(
            "  {:9}: {:.2}x",
            m.name(),
            adam.relative_to_gpipe(m, &clk, &fracs, m == Method::PipeMare)
        );
    }

    // Activation memory with PipeMare Recompute (Figure 6 / Table 4).
    let am = ActivationModel { p: 16 };
    println!("\nActivation profile, P = 16, 4 segments (Figure 6):");
    println!("  w/o recompute: {:?}", am.profile_no_recompute());
    println!("  w/  recompute: {:?}", am.profile_recompute(4));
    println!(
        "  totals: {} -> {} (optimal segment {} ≈ √P)",
        am.total_no_recompute(),
        am.total_recompute(4),
        am.optimal_segment()
    );

    // Threaded executor: the bubble penalty on real wall-clock time.
    println!("\nThreaded pipeline (P = 4, N = 2, 12 minibatches, 2ms/stage):");
    let work = Duration::from_millis(2);
    let run = |method| {
        let plan = PipelinePlan::for_method(method, 4, 2, 12);
        run_pipeline(&plan, &mut [Sleep(work); 4], &NullRecorder, &ActivationLedger::new(4, 1))
    };
    let (async_run, gpipe_run) = (run(Method::PipeMare), run(Method::GPipe));
    println!(
        "  PipeMare: {:.0} micro/s | GPipe: {:.0} micro/s | ratio {:.2} (bubble model predicts {:.2})",
        async_run.throughput,
        gpipe_run.throughput,
        gpipe_run.throughput / async_run.throughput,
        gpipe_bubble_throughput(4, 2)
    );
}
