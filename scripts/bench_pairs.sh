#!/usr/bin/env bash
# Compares pmbench's end-to-end metrics between a base revision and the
# working tree, in alternated pairs of runs.
#
# Usage: scripts/bench_pairs.sh <base-rev> <pairs> <seconds> <workload>...
#
# Builds pmbench twice: from the working tree, and from <base-rev> exported
# with `git archive` into a temporary directory with its own
# CARGO_TARGET_DIR (removed on exit, so a killed run leaves nothing in the
# repository). Each pair runs both builds back to back, base first in even
# pairs and change first in odd ones, with seed $PMBENCH_SEED (default 1).
# For every workload and end-to-end metric of BENCHMARK.json it prints the
# base and change quartiles (q1 median q3, by Python's
# `statistics.quantiles`) and every pair's values, the change's wins out of
# the pairs in the metric's `better` direction, whether a gain would meet
# the claim rule of pmbench/README.md (at least ten pairs, nine wins in
# ten and a median gap wider than the base's interquartile range) and
# whether the change's median is worse than the base's by more than the
# metric's bound. It also lists the `exact` lines the change moved. Every
# build rewrites pmbench/Cargo.lock; the script puts it back in both trees.
#
# Exits non-zero when a run or a check fails, the runs of one side disagree
# on an `exact` line, or a bound is crossed.
set -euo pipefail

if [ "$#" -lt 4 ]; then
  echo "usage: $0 <base-rev> <pairs> <seconds> <workload>..." >&2
  exit 2
fi
base_rev=$1 pairs=$2 seconds=$3
shift 3
workloads=("$@")
seed=${PMBENCH_SEED:-1}
if [ "$pairs" -lt 2 ]; then
  echo "$0: quartiles need at least 2 pairs" >&2
  exit 2
fi

root=$(git rev-parse --show-toplevel)
base_commit=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
tmp=$(mktemp -d)
lock_saved="$tmp/Cargo.lock.change"
cp "$root/pmbench/Cargo.lock" "$lock_saved"
cleanup() {
  cp "$lock_saved" "$root/pmbench/Cargo.lock"
  rm -rf "$tmp"
}
trap cleanup EXIT

# Builds pmbench in tree $1 into target dir $2, then restores the tree's
# Cargo.lock. Builds from the tree's root so its .cargo/config.toml applies
# as it does for the benchmark's own command.
build() {
  local tree=$1 target=$2
  cp "$tree/pmbench/Cargo.lock" "$tmp/Cargo.lock.build"
  (cd "$tree" && CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path pmbench/Cargo.toml)
  cp "$tmp/Cargo.lock.build" "$tree/pmbench/Cargo.lock"
}

mkdir -p "$tmp/base" "$tmp/logs"
git -C "$root" archive "$base_commit" | tar -x -C "$tmp/base"
echo "building base ${base_commit:0:12} and the working tree"
change_target=${CARGO_TARGET_DIR:-$root/pmbench/target}
build "$tmp/base" "$tmp/base-target"
build "$root" "$change_target"
base_bin="$tmp/base-target/release/pmbench"
change_bin="$change_target/release/pmbench"

run() {
  local side=$1 bin=$2 pair=$3 workload=$4
  local log="$tmp/logs/$workload.$side.$pair"
  if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$log"; then
    echo "$side run $pair of $workload exited non-zero" >>"$log"
  fi
  echo "pair $pair $side $workload: $(tail -1 "$log" | cut -c1-60)…"
}

for ((pair = 0; pair < pairs; pair++)); do
  for workload in "${workloads[@]}"; do
    if ((pair % 2 == 0)); then
      run base "$base_bin" "$pair" "$workload"
      run change "$change_bin" "$pair" "$workload"
    else
      run change "$change_bin" "$pair" "$workload"
      run base "$base_bin" "$pair" "$workload"
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$tmp/logs" "$pairs" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

contract, logs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(contract))["end_to_end"]
ok = True


def read(workload, side, pair):
    lines = open(f"{logs}/{workload}.{side}.{pair}").read().splitlines()
    failed_checks = [l for l in lines if l.startswith("check ") and " FAILED" in l]
    exact = [l for l in lines if l.startswith("exact ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": 1, "metrics": {}}
    return result, failed_checks, exact


for w in workloads:
    runs = {side: [read(w, side, p) for p in range(pairs)] for side in ("base", "change")}
    for side, rs in runs.items():
        for p, (result, failed_checks, _) in enumerate(rs):
            if not result["correct"] or result["failed"] or failed_checks:
                ok = False
                print(f"{w}: {side} run {p} failed: {failed_checks or result.get('failed')}")
    exact = {side: {tuple(e) for (_, _, e) in rs} for side, rs in runs.items()}
    for side, seen in exact.items():
        if len(seen) > 1:
            ok = False
            print(f"{w}: the {side} runs disagree on their exact lines")
    moved = sorted(set(sum(exact["change"], ())) - set(sum(exact["base"], ())))
    print(f"{w}: exact lines the change moved: {moved or 'none'}")
    print(f"{w} metric | base q1 median q3 | change q1 median q3 | wins | claim | worse (bound)")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {
            side: [r[0]["metrics"].get(name, {}).get("value", 0.0) for r in rs]
            for side, rs in runs.items()
        }
        b1, b2, b3 = statistics.quantiles(values["base"], n=4)
        c1, c2, c3 = statistics.quantiles(values["change"], n=4)
        gain = (b2 - c2) if lower else (c2 - b2)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"]))
        claim = pairs >= 10 and wins >= 0.9 * pairs and gain > b3 - b1
        worse = -gain / abs(b2) if b2 else 0.0
        crossed = worse > m["bound"]
        ok &= not crossed
        print(
            f"{w} {name} | {b1:.4f} {b2:.4f} {b3:.4f} | {c1:.4f} {c2:.4f} {c3:.4f} | "
            f"{wins}/{pairs} | {'holds' if claim else 'no'} | "
            f"{worse:+.1%} ({m['bound']:.0%}){'  CROSSED' if crossed else ''}"
        )
        for side, vs in values.items():
            print(f"  {side:<6} by pair: {' '.join(f'{v:.6g}' for v in vs)}")
sys.exit(0 if ok else 1)
EOF
