//! Figure 1: the three pipelining modes as slot diagrams — throughput-poor
//! (GPipe, bubbles at every minibatch boundary) vs bubble-free
//! asynchronous pipelining (PipeDream/PipeMare), rendered from the unit
//! slots of the plans the executor runs.

use pipemare_bench::report::banner;
use pipemare_pipeline::{Method, PipelinePlan};

fn main() {
    banner("Figure 1", "Pipelining modes: slot diagrams (P = 3 stages, N = 1, 3 minibatches)");
    for method in Method::ALL {
        let plan = PipelinePlan::for_method(method, 3, 1, 3);
        println!(
            "\n{} — {} slots, {} bubbles, utilization {:.0}%",
            method.name(),
            plan.slots(),
            plan.bubbles(),
            100.0 * plan.utilization()
        );
        for row in plan.render() {
            println!("  {row}");
        }
    }
    println!("\nPaper shape: GPipe stalls (green-cloud bubbles) at every minibatch");
    println!("boundary; PipeDream/PipeMare keep every stage busy in steady state —");
    println!("PipeDream by stashing weight copies, PipeMare by tolerating stale weights.");
}
