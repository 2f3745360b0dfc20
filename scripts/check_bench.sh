#!/usr/bin/env bash
# Bench-regression gate: reruns the JSON-writing kernel/memory benches in
# smoke mode and the claims ledger (`claims`, every row: each paper
# artifact's numbers and 0/1 verdicts, about a minute), then diffs the
# fresh logs against the checked-in BENCH_*.json baselines and
# CLAIMS.json with crates/bench/src/bin/check_bench.rs. Deterministic
# keys (analytic ratios, measured memory peaks, every ledger key) must
# match within tolerance; wall-clock keys are reported but never gate.
# Exit 0 = all pass.
#
# Usage: scripts/check_bench.sh [--full]
#   --full  run the full (minutes-long) bench sweeps instead of smoke mode,
#           covering every baseline key including the P=25/512^3 scalars.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=smoke
if [[ "${1:-}" == "--full" ]]; then
  mode=full
fi

out=target/bench-check
mkdir -p "$out"
export PIPEMARE_EXPERIMENTS_DIR="$PWD/$out"

smoke_flag=(-- --test)
if [[ "$mode" == full ]]; then
  smoke_flag=()
fi

echo "=== regenerating bench logs ($mode mode) ==="
cargo bench -p pipemare-bench --bench gemm_kernels "${smoke_flag[@]}"
cargo bench -p pipemare-bench --bench recompute_memory "${smoke_flag[@]}"
cargo bench -p pipemare-bench --bench flight_recorder "${smoke_flag[@]}"
cargo bench -p pipemare-bench --bench comms "${smoke_flag[@]}"
cargo bench -p pipemare-bench --bench serving "${smoke_flag[@]}"
cargo bench -p pipemare-bench --bench live_metrics "${smoke_flag[@]}"
cargo bench -p pipemare-bench --bench journal "${smoke_flag[@]}"
cargo run --release -p pipemare-bench --bin claims

echo
echo "=== diffing against checked-in baselines ==="
status=0
cargo run --release -p pipemare-bench --bin check_bench -- \
  BENCH_gemm_kernels.json "$out/bench_gemm_kernels.json" || status=1
cargo run --release -p pipemare-bench --bin check_bench -- \
  BENCH_recompute_memory.json "$out/bench_recompute_memory.json" || status=1
cargo run --release -p pipemare-bench --bin check_bench -- \
  BENCH_flight_recorder.json "$out/bench_flight_recorder.json" || status=1
cargo run --release -p pipemare-bench --bin check_bench -- \
  BENCH_comms.json "$out/bench_comms.json" || status=1
cargo run --release -p pipemare-bench --bin check_bench -- \
  BENCH_serving.json "$out/bench_serving.json" || status=1
cargo run --release -p pipemare-bench --bin check_bench -- \
  BENCH_live_metrics.json "$out/bench_live_metrics.json" || status=1
cargo run --release -p pipemare-bench --bin check_bench -- \
  BENCH_journal.json "$out/bench_journal.json" || status=1
cargo run --release -p pipemare-bench --bin check_bench -- \
  CLAIMS.json "$out/claims.json" || status=1

if [[ $status -eq 0 ]]; then
  echo "bench check: PASS"
else
  echo "bench check: FAIL"
fi
exit $status
