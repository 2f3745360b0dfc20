//! Activation-memory benchmark for the runtime recompute subsystem.
//!
//! Two questions, answered with the threaded executor rather than the
//! closed forms alone:
//!
//! 1. **Memory**: per-stage peak activation buffers measured live by the
//!    [`ActivationLedger`] under stash-everything vs segmented
//!    recomputation, and the total-memory ratio against the Table 5
//!    model (`1/√P` in the large-P limit).
//! 2. **Throughput**: the replay wave re-runs every non-final segment's
//!    forwards, so microbatches/s drop relative to stash-all; the
//!    overhead factor is the price of the memory saving.
//!
//! Writes `bench_recompute_memory.json` (an [`ExperimentLog`]); the
//! checked-in copy at the repo root is `BENCH_recompute_memory.json`.
//! Passing `--test` runs a seconds-long smoke version (small P, zero
//! injected work) for CI; the smoke run still writes the JSON — with the
//! sweep series truncated to the smoke prefix and the full-sweep-only
//! scalars omitted — so `scripts/check_bench.sh` can diff it against the
//! checked-in baseline.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_bench::report::{banner, table_header, ExperimentLog};
use pipemare_nn::{ImageBatch, Mlp, TrainModel};
use pipemare_pipeline::{
    run_pipeline, ActivationLedger, ActivationModel, PipelinePlan, RecomputePolicy, Sleep,
};
use pipemare_telemetry::NullRecorder;
use pipemare_tensor::{StoragePrecision, Tensor};

/// `(P, n_micro, minibatches)` sized so total microbatches ≥ 2P − 1
/// reaches the steady-state peaks.
const SWEEP: &[(usize, usize, usize)] = &[(4, 4, 2), (9, 6, 3), (16, 8, 4), (25, 10, 5)];

const SMOKE_SWEEP: &[(usize, usize, usize)] = &[(4, 4, 2), (9, 6, 3)];

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let sweep = if smoke { SMOKE_SWEEP } else { SWEEP };
    let work = if smoke { Duration::ZERO } else { Duration::from_micros(300) };

    banner(
        "recompute_memory",
        "Runtime activation memory and throughput: stash-all vs segmented recompute",
    );
    table_header(&[
        ("P", 4),
        ("S", 4),
        ("stash tot", 10),
        ("rc tot", 8),
        ("ratio", 7),
        ("1/sqrt(P)", 10),
        ("overhead", 9),
    ]);

    let mut log = ExperimentLog::new("bench_recompute_memory");
    let mut stages_series = Vec::new();
    let mut ratio_series = Vec::new();
    let mut model_series = Vec::new();
    let mut overhead_series = Vec::new();

    for &(p, n_micro, minibatches) in sweep {
        let model = ActivationModel { p };
        let seg = model.optimal_segment();
        let run = |policy| {
            let plan = PipelinePlan::for_recompute(policy, p, n_micro, minibatches);
            run_pipeline(
                &plan,
                &mut vec![Sleep(work); p],
                &NullRecorder,
                &ActivationLedger::new(p, 1),
            )
        };
        let stash = run(RecomputePolicy::StashAll);
        let rc = run(RecomputePolicy::Segmented { segment: seg });
        // The measured ledger peaks must land exactly on the closed
        // forms — a benchmark of a wrong runtime would be worthless.
        assert_eq!(stash.peak_activations, model.profile_no_recompute());
        assert_eq!(rc.peak_activations, model.profile_recompute(seg));

        let stash_total: usize = stash.peak_activations.iter().sum();
        let rc_total: usize = rc.peak_activations.iter().sum();
        let ratio = rc_total as f64 / stash_total as f64;
        let overhead = stash.throughput / rc.throughput;
        println!(
            "{p:>4} {seg:>4} {stash_total:>10} {rc_total:>8} {ratio:>7.3} {:>10.3} {overhead:>8.2}x",
            model.table5_ratio()
        );
        stages_series.push(p as f64);
        ratio_series.push(ratio);
        model_series.push(model.table5_ratio());
        overhead_series.push(overhead);
    }

    // --- bf16 activation stashes ------------------------------------
    // The same checkpointed model stashed at f32 and at bf16: the bytes
    // are measured from real `Cache` contents (boundary stashes plus the
    // f32 loss-gradient tensor the model always keeps), not computed
    // from the 2-vs-4-byte arithmetic, so the ratio lands slightly above
    // 0.5 and must stay under the 0.55 gate.
    let widths = [256usize, 256, 256, 256, 10];
    let seg = 3;
    let model_f32 = Mlp::new(&widths).with_recompute(seg);
    let model_bf16 =
        Mlp::new(&widths).with_recompute(seg).with_stash_precision(StoragePrecision::Bf16);
    let mut rng = StdRng::seed_from_u64(11);
    let mut params = vec![0.0; model_f32.param_len()];
    model_f32.init_params(&mut params, &mut rng);
    let batch =
        ImageBatch { x: Tensor::randn(&[32, 256], &mut rng), y: (0..32).map(|i| i % 10).collect() };
    let (_, cache_f32) = model_f32.forward_loss(&params, &batch);
    let (_, cache_bf16) = model_bf16.forward_loss(&params, &batch);
    let (b_f32, b_bf16) = (cache_f32.activation_bytes(), cache_bf16.activation_bytes());
    let stash_ratio = b_bf16 as f64 / b_f32 as f64;
    assert!(
        stash_ratio <= 0.55,
        "bf16 stash must be ≤ 0.55× the f32 footprint, got {stash_ratio:.3} ({b_bf16} / {b_f32} B)"
    );

    // Scaled up by the ledger: peak stash *counts* are precision-blind,
    // so the per-stage peak bytes of the largest swept pipeline shrink
    // by exactly bytes-per-value (2 vs 4).
    let elems = batch.x.len();
    let per_act_f32 = ActivationLedger::with_element_precision(1, elems, StoragePrecision::F32)
        .bytes_per_activation();
    let per_act_bf16 = ActivationLedger::with_element_precision(1, elems, StoragePrecision::Bf16)
        .bytes_per_activation();
    let rc_total_last = {
        let &(p, n_micro, minibatches) = sweep.last().expect("sweep non-empty");
        let seg = ActivationModel { p }.optimal_segment();
        let plan = PipelinePlan::for_recompute(
            RecomputePolicy::Segmented { segment: seg },
            p,
            n_micro,
            minibatches,
        );
        let mut work = vec![Sleep(Duration::ZERO); p];
        let rc = run_pipeline(&plan, &mut work, &NullRecorder, &ActivationLedger::new(p, 1));
        rc.peak_activations.iter().sum::<usize>()
    };
    println!("\nbf16 activation stashes (measured cache bytes, {seg}-layer segments):");
    println!("  per microbatch: f32 {b_f32} B, bf16 {b_bf16} B -> ratio {stash_ratio:.3}");
    println!(
        "  ledger peak total (P = {}): f32 {} B, bf16 {} B",
        sweep.last().unwrap().0,
        rc_total_last * per_act_f32,
        rc_total_last * per_act_bf16,
    );
    log.push_scalar("bf16_stash_ratio", stash_ratio);
    log.push_scalar(
        "bf16_ledger_bytes_ratio",
        (rc_total_last * per_act_bf16) as f64 / (rc_total_last * per_act_f32) as f64,
    );

    println!("\nTable 5 stage counts (analytical, too many stages to thread here):");
    for (task, p) in [("CIFAR10/ImageNet", 107usize), ("IWSLT14", 93), ("WMT17", 91)] {
        let model = ActivationModel { p };
        let seg = model.optimal_segment();
        let exact = model.total_recompute(seg) as f64 / model.total_no_recompute() as f64;
        println!(
            "  {task}: P = {p}, segment {seg} -> ratio {exact:.3} (1/sqrt(P) = {:.3})",
            model.table5_ratio()
        );
        log.push_scalar(&format!("table5.{p}.ratio"), exact);
    }

    log.push_series("stages", stages_series);
    log.push_series("memory_ratio_measured", ratio_series.iter().copied());
    log.push_series("memory_ratio_table5_model", model_series);
    log.push_series("throughput_overhead", overhead_series.iter().copied());
    if !smoke {
        // The P = 25 headline scalars only exist on the full sweep.
        log.push_scalar("memory_ratio_p25", *ratio_series.last().expect("sweep non-empty"));
        log.push_scalar(
            "throughput_overhead_p25",
            *overhead_series.last().expect("sweep non-empty"),
        );
    }
    match log.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write experiment log: {e}"),
    }
    if smoke {
        println!("\nrecompute_memory smoke OK ({} pipelines, peaks exact)", sweep.len());
    }
}
