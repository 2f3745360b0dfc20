#!/usr/bin/env bash
# Regenerates every paper artifact (the `claims` ledger) and runs every
# infrastructure bench, saving the printed output under
# target/experiment-output/, one log per binary. Machine-readable
# experiment logs and pipeline traces land in the same directory via
# PIPEMARE_EXPERIMENTS_DIR (see crates/bench/src/report.rs and
# examples/trace_pipeline.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/experiment-output
mkdir -p "$out"
# Absolute path: cargo runs bench binaries with cwd = the package dir,
# so a relative override would scatter logs across crate subdirectories.
export PIPEMARE_EXPERIMENTS_DIR="$PWD/$out"

benches=(
  throughput_executor
  recompute_memory
  flight_recorder
  comms
  serving
  live_metrics
  journal
  gemm_kernels
  substrate_micro
)

for b in "${benches[@]}"; do
  echo "=== $b ==="
  cargo bench -p pipemare-bench --bench "$b" 2>&1 | tee "$out/$b.txt"
done

echo "=== claims (every paper table and figure, with verdicts) ==="
cargo run --release -p pipemare-bench --bin claims 2>&1 | tee "$out/claims.txt"

echo "=== trace_pipeline (Chrome traces + metrics snapshot) ==="
cargo run --release --example trace_pipeline 2>&1 | tee "$out/trace_pipeline.txt"

echo "=== recompute_pipeline (live activation accounting + τ_recomp) ==="
cargo run --release --example recompute_pipeline 2>&1 | tee "$out/recompute_pipeline.txt"

echo "=== health_monitor (stability margins + alert logs) ==="
cargo run --release --example health_monitor 2>&1 | tee "$out/health_monitor.txt"

echo "=== flight_recorder (always-on rings + anomaly black box) ==="
cargo run --release --example flight_recorder 2>&1 | tee "$out/flight_recorder.txt"

echo "=== distributed_pipeline (wire protocol, loopback + TCP, bit-identity) ==="
cargo run --release --example distributed_pipeline tcp 2>&1 | tee "$out/distributed_pipeline.txt"

echo "=== orchestrator (subprocess workers over TCP + merged trace) ==="
{
  cargo run --release -p pipemare-comms --bin orchestrator -- \
    train --transport tcp --stages 4 --minibatches 6
  cargo run --release -p pipemare-telemetry --bin pm -- trace \
    summary "$out/distributed_tcp.jsonl"
} 2>&1 | tee "$out/orchestrator.txt"

echo "=== serving (TCP bit-identity + load sweep + serving trace) ==="
{
  cargo run --release --example serving
  cargo run --release -p pipemare-telemetry --bin pm -- trace \
    summary "$out/serving/serving.jsonl"
} 2>&1 | tee "$out/serving.txt"

echo "=== pm trace (post-mortem trace analysis) ==="
{
  cargo run --release -p pipemare-telemetry --bin pm -- trace \
    summary "$out"/flight_black_box/blackbox_step*.jsonl
  cargo run --release -p pipemare-telemetry --bin pm -- trace \
    diff "$out/trace_gpipe.jsonl" "$out/trace_pipemare.jsonl"
} 2>&1 | tee "$out/pm_trace.txt"

echo "All artifact logs and traces in $out/"
