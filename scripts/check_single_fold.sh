#!/usr/bin/env bash
# One per-stage fold of a trace, kept by a grep. The timeline summary,
# `pm trace drift`, the live store's samples and the health monitor's τ
# histograms all read `StageFold` in crates/telemetry/src/summary.rs,
# which buckets each stage's forward, backward and replay spans once and
# is the only caller of `delay_slot_samples`, the one definition of
# measured τ. A `delay_slot_samples(` call or a `SpanKind::Backward` /
# `SpanKind::Recompute` pattern anywhere else in the telemetry library is
# a second scan of the trace by stage in the making, with its own idea of
# which spans count. event.rs and flight.rs are exempt: they only encode
# span kinds (names and ring tags).
#
# Counted: lines under crates/telemetry/src outside `#[cfg(test)]`
# modules (which end every file that has one) and comments. Exit 0 = one
# fold.
set -euo pipefail
cd "$(dirname "$0")/.."

src=crates/telemetry/src
found=$(for f in $(find "$src" -name '*.rs' \
    -not -path "$src/summary.rs" -not -path "$src/event.rs" -not -path "$src/flight.rs"); do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /delay_slot_samples\(|SpanKind::(Backward|Recompute)/ { printf "%s:%d\n", f, FNR }' "$f"
done)
if [[ -n "$found" ]]; then
  echo "FAIL: per-stage trace scan outside $src/summary.rs:"
  printf '%s\n' "$found" | sed 's/^/  /'
  exit 1
fi
echo "ok: every per-stage reading of a trace goes through $src/summary.rs"
