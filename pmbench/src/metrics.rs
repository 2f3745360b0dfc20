//! Every metric the benchmark reports, with its unit and good direction.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "throughput_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "op_ms_quiet", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_heap_mb", unit: "MB", better: Lower, bound: 0.05 },
];

/// `(name, unit, good direction)`. A workload reports 0 for a layer it
/// does not exercise.
pub const PER_LAYER: [(&str, &str, Better); 100] = [
    ("tensor.gemm_gflops_conv", "GFLOP/s", Higher),
    ("tensor.gemm_gflops_attn", "GFLOP/s", Higher),
    ("tensor.gemm_gflops_b16", "GFLOP/s", Higher),
    ("tensor.gemv_gflops_b1", "GFLOP/s", Higher),
    ("tensor.pool_speedup_2t", "x", Higher),
    ("tensor.simd_tier", "tier", Higher),
    ("tensor.allocs_per_gemm", "count", Lower),
    ("nn.fwd_ms", "ms", Lower),
    ("nn.bwd_ms", "ms", Lower),
    ("nn.recomp_fwd_ms", "ms", Lower),
    ("nn.fwd_share", "share", Lower),
    ("nn.bwd_share", "share", Lower),
    ("nn.calls_per_step", "count", Lower),
    ("nn.flops_per_step", "flop", Lower),
    ("nn.achieved_gflops", "GFLOP/s", Higher),
    ("nn.roofline_share", "share", Higher),
    ("nn.allocs_per_fwd_bwd", "count", Lower),
    ("nn.alloc_bytes_per_fwd_bwd", "bytes", Lower),
    ("nn.cache_bytes", "bytes", Lower),
    ("nn.layer_fwd_us.conv", "us", Lower),
    ("nn.layer_fwd_us.batchnorm", "us", Lower),
    ("nn.layer_fwd_us.linear", "us", Lower),
    ("nn.layer_fwd_us.attention", "us", Lower),
    ("nn.layer_fwd_us.layernorm", "us", Lower),
    ("nn.layer_fwd_us.embedding", "us", Lower),
    ("nn.layer_bwd_us.conv", "us", Lower),
    ("nn.layer_bwd_us.batchnorm", "us", Lower),
    ("nn.layer_bwd_us.linear", "us", Lower),
    ("nn.layer_bwd_us.attention", "us", Lower),
    ("nn.layer_bwd_us.layernorm", "us", Lower),
    ("nn.layer_bwd_us.embedding", "us", Lower),
    ("nn.infer_split_us_b1", "us", Lower),
    ("nn.infer_split_us_b16", "us", Lower),
    ("optim.step_us", "us", Lower),
    ("optim.ns_per_param", "ns", Lower),
    ("optim.clip_us", "us", Lower),
    ("optim.state_bytes", "bytes", Lower),
    ("data.generate_ms", "ms", Lower),
    ("data.batch_us", "us", Lower),
    ("data.wait_share", "share", Lower),
    ("pipeline.assemble_us", "us", Lower),
    ("pipeline.assembles_per_step", "count", Lower),
    ("pipeline.push_us", "us", Lower),
    ("pipeline.history_bytes", "bytes", Lower),
    ("pipeline.bubble_share_model", "share", Lower),
    ("pipeline.util_model", "share", Higher),
    ("core.step_self_ms", "ms", Lower),
    ("core.step_self_share", "share", Lower),
    ("core.step_burst_ratio", "x", Lower),
    ("core.step_ms_p50", "ms", Lower),
    ("core.step_ms_p95", "ms", Lower),
    ("core.allocs_per_step", "count", Lower),
    ("core.alloc_bytes_per_step", "bytes", Lower),
    ("core.trainer_new_ms", "ms", Lower),
    ("core.eval_ms", "ms", Lower),
    ("core.steps_to_target", "count", Lower),
    ("core.time_to_target_s", "s", Lower),
    ("comms.wire_bytes_per_step", "bytes", Lower),
    ("comms.tx_bytes_per_step", "bytes", Lower),
    ("comms.rx_bytes_per_step", "bytes", Lower),
    ("comms.frames_per_step", "count", Lower),
    ("comms.bytes_per_param_step", "bytes", Lower),
    ("comms.send_ms_per_step", "ms", Lower),
    ("comms.recv_wait_ms_per_step", "ms", Lower),
    ("comms.wire_share", "share", Lower),
    ("comms.encode_us_shard", "us", Lower),
    ("comms.decode_us_shard", "us", Lower),
    ("comms.encode_us_infer", "us", Lower),
    ("comms.decode_us_infer", "us", Lower),
    ("comms.roundtrip_us_tcp", "us", Lower),
    ("comms.roundtrip_us_loopback", "us", Lower),
    ("comms.handshake_ms", "ms", Lower),
    ("comms.telemetry_bytes_per_step", "bytes", Lower),
    ("serve.p50_ms_lo", "ms", Lower),
    ("serve.p99_ms_lo", "ms", Lower),
    ("serve.p50_ms_hi", "ms", Lower),
    ("serve.p99_ms_hi", "ms", Lower),
    ("serve.max_rate_rps", "1/s", Higher),
    ("serve.goodput_rps_overload", "1/s", Higher),
    ("serve.shed_share_overload", "share", Lower),
    ("serve.goodput_over_saturation", "share", Higher),
    ("serve.batch_rows_mean_lo", "rows", Higher),
    ("serve.batch_rows_mean_hi", "rows", Higher),
    ("serve.batch_rows_mean_overload", "rows", Higher),
    ("serve.batches_per_s_hi", "1/s", Lower),
    ("serve.queue_wait_us_p50", "us", Lower),
    ("serve.engine_batch_us_b16", "us", Lower),
    ("serve.closed_rtt_us_p50", "us", Lower),
    ("serve.start_ms", "ms", Lower),
    ("telemetry.flight_ns_per_event", "ns", Lower),
    ("telemetry.events_per_request", "count", Lower),
    ("telemetry.events_per_step", "count", Lower),
    ("telemetry.journal_append_us_p50", "us", Lower),
    ("telemetry.journal_append_us_p99", "us", Lower),
    ("telemetry.sample_cost_us", "us", Lower),
    ("telemetry.observed_step_overhead_share", "share", Lower),
    ("pmbench.trace_overhead_share", "share", Lower),
    ("pmbench.sender_lag_us_p99", "us", Lower),
    ("pmbench.host_steal_ticks", "ticks", Lower),
    ("pmbench.run_wall_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Values of `"key": "value"` pairs, in file order.
    fn strings_of(text: &str, key: &str) -> Vec<String> {
        let needle = format!("\"{key}\": \"");
        text.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &text[at + needle.len()..];
                rest[..rest.find('"').expect("a closing quote")].to_string()
            })
            .collect()
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Lower => "lower",
            Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (head, per_layer) = text.split_once("\"per_layer\"").expect("a per_layer section");
        let end_to_end = head.split_once("\"end_to_end\"").expect("an end_to_end section").1;

        // `(name, unit, better)` of every entry of a section, in file order.
        let listed = |section: &str| -> Vec<(String, String, String)> {
            let (names, units) = (strings_of(section, "name"), strings_of(section, "unit"));
            let better = strings_of(section, "better");
            names.into_iter().zip(units).zip(better).map(|((n, u), b)| (n, u, b)).collect()
        };
        let owned =
            |n: &str, u: &str, b: Better| (n.to_string(), u.to_string(), direction(b).to_string());

        let want: Vec<_> = END_TO_END.iter().map(|m| owned(m.name, m.unit, m.better)).collect();
        assert_eq!(listed(end_to_end), want);
        for m in &END_TO_END {
            assert!(end_to_end.contains(&format!("\"bound\": {}", m.bound)), "bound of {}", m.name);
        }
        let want: Vec<_> = PER_LAYER.iter().map(|&(n, u, b)| owned(n, u, b)).collect();
        assert_eq!(listed(per_layer), want);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for (i, n) in names.iter().enumerate() {
            assert!(
                ok(n, "_.-", 64) && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(!names[..i].contains(n), "{n} is listed twice");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(ok(u, "_/%.-", 16), "unit {u}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
