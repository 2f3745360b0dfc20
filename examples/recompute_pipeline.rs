//! Runs the recompute-aware threaded executor and checks its live memory
//! accounting against the §3.2 closed forms, prints measured vs nominal
//! τ_recomp per stage, and demonstrates the model-side checkpointed
//! cache. Writes an [`ExperimentLog`] JSON (`recompute_pipeline.json`)
//! under `$PIPEMARE_EXPERIMENTS_DIR` (default `target/experiments`).
//!
//! ```text
//! cargo run --example recompute_pipeline
//! ```

use std::time::Duration;

use pipemare::nn::{ImageBatch, Mlp, TrainModel};
use pipemare::pipeline::{
    run_pipeline, ActivationLedger, ActivationModel, PipelinePlan, RecomputePolicy, Sleep,
};
use pipemare::telemetry::{FlightRecorder, MetricsRegistry, PipelineTimelineSummary};
use pipemare::tensor::Tensor;
use pipemare::theory::recomp_delay_slots;
use pipemare_bench::report::ExperimentLog;

fn main() {
    let (p, n_micro, minibatches) = (9usize, 6usize, 3usize);
    let model = ActivationModel { p };
    let seg = model.optimal_segment();
    // Stand-in per-microbatch activation footprint so the live gauges
    // report bytes rather than bare buffer counts.
    let bytes_per_activation = 256 * 1024;
    let work = Duration::from_micros(500);
    let mut log = ExperimentLog::new("recompute_pipeline");
    log.push_scalar("stages", p as f64);
    log.push_scalar("segment", seg as f64);

    println!("Recompute executor: P = {p} stages, optimal segment S = {seg}");
    let mut throughputs = [0.0f64; 2];
    for (i, (label, policy)) in [
        ("stash_all", RecomputePolicy::StashAll),
        ("recompute", RecomputePolicy::Segmented { segment: seg }),
    ]
    .into_iter()
    .enumerate()
    {
        let registry = MetricsRegistry::new();
        let ledger = ActivationLedger::with_registry(p, bytes_per_activation, &registry);
        let rec = FlightRecorder::for_pipeline(p);
        let plan = PipelinePlan::for_recompute(policy, p, n_micro, minibatches);
        let report = run_pipeline(&plan, &mut vec![Sleep(work); p], &rec, &ledger);
        let summary = PipelineTimelineSummary::from_events(&rec.events());
        let expected = policy.expected_peaks(p);
        assert_eq!(report.peak_activations, expected, "{label}: ledger diverged from model");
        throughputs[i] = report.throughput;

        println!(
            "\n{label}: {:.1} microbatches/s, {} replay ops, peaks (measured == modeled):",
            report.throughput, report.recompute_ops
        );
        for (s, st) in summary.stages.iter().enumerate() {
            println!(
                "  stage {s}: peak {:>2} buffers ({:>8} B live gauge), \
                 τ_recomp measured {:.1} slots (nominal {:.0})",
                report.peak_activations[s],
                ledger.peak_bytes()[s],
                st.measured_recomp_delay_slots,
                if matches!(policy, RecomputePolicy::Segmented { .. }) && st.recomp_us > 0 {
                    recomp_delay_slots(seg, s) as f64
                } else {
                    0.0
                },
            );
        }
        log.push_series(
            &format!("{label}.peak_activations"),
            report.peak_activations.iter().map(|&v| v as f64),
        );
        log.push_series(
            &format!("{label}.measured_recomp_delay_slots"),
            summary.stages.iter().map(|st| st.measured_recomp_delay_slots),
        );
        log.push_scalar(&format!("{label}.throughput"), report.throughput);
        log.push_scalar(&format!("{label}.recompute_ops"), report.recompute_ops as f64);
        log.fold_metrics(&registry.snapshot());
    }

    let total_stash: usize = RecomputePolicy::StashAll.expected_peaks(p).iter().sum();
    let total_rc: usize = model.profile_recompute(seg).iter().sum();
    let ratio = total_rc as f64 / total_stash as f64;
    let overhead = throughputs[0] / throughputs[1];
    println!(
        "\nActivation memory ratio {:.3} (Table 5 model {:.3}); \
         throughput overhead {overhead:.2}x vs stash-all",
        ratio,
        model.table5_ratio()
    );
    log.push_scalar("memory_ratio", ratio);
    log.push_scalar("table5_ratio_model", model.table5_ratio());
    log.push_scalar("throughput_overhead", overhead);

    // Model-side view: the checkpointed cache really is smaller.
    let mlp = Mlp::new(&[3 * 16 * 16, 128, 64, 32, 10]);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let mut params = vec![0.0f32; mlp.param_len()];
    mlp.init_params(&mut params, &mut rng);
    let batch = ImageBatch { x: Tensor::randn(&[8, 3 * 16 * 16], &mut rng), y: vec![0; 8] };
    let (_, full) = mlp.forward_loss(&params, &batch);
    let rc_mlp = Mlp::new(&[3 * 16 * 16, 128, 64, 32, 10]).with_recompute(2);
    let (_, ckpt) = rc_mlp.forward_loss(&params, &batch);
    println!(
        "MLP cache: stash-everything {} B -> checkpointed (S=2) {} B",
        full.activation_bytes(),
        ckpt.activation_bytes()
    );
    log.push_scalar("mlp_cache_bytes_full", full.activation_bytes() as f64);
    log.push_scalar("mlp_cache_bytes_checkpointed", ckpt.activation_bytes() as f64);

    let path = log.save().expect("write experiment log");
    println!("wrote {}", path.display());
}
