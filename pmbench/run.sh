#!/usr/bin/env bash
# Builds the benchmark and runs every workload once untraced (the
# end-to-end numbers), then once traced (the per-layer numbers).
#
# Usage: pmbench/run.sh [seed] [seconds]
#
# Builds from pmbench/, so the repository's .cargo/config.toml above it
# (target-cpu=native) applies to this crate and to the crates it links.
set -euo pipefail
cd "$(dirname "$0")"

seed="${1:-1}"
seconds="${2:-20}"
workloads=(resnet_inproc transformer_recompute widemlp_tcp serve_mlp_open)

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/pmbench"

for trace in 0 1; do
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
  done
done
