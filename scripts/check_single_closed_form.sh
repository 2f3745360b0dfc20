#!/usr/bin/env bash
# One copy of the pipeline's closed forms, kept by a grep. Table 1's
# forward delay in slots `2(P−1−s)+1`, App. D's recompute delay
# `2(S − s mod S)` and the GPipe bubble fraction `(P−1)/(N+P−1)` are
# defined once, in crates/theory/src/delays.rs; the pipeline clock, the
# cost models, the comms stage and telemetry's summaries, drift, live
# store and alerts all call them. A `fn` named `delay_slots`,
# `recomp_delay_slots` or `gpipe_bubble_fraction` (with or without a
# prefix such as `nominal_`) anywhere else is a second copy that only a
# test would hold to the first. A method whose whole body is one call of
# the theory function (a thin forwarder) is allowed.
#
# Searched: every *.rs under crates/*/src but crates/theory/src, under
# crates/*/benches, examples, src and pmbench/src — lines outside
# `#[cfg(test)]` modules (which end every file that has one) and
# comments. Exit 0 = one copy.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates/*/src crates/*/benches examples src pmbench/src -name '*.rs' \
    -not -path 'crates/theory/src/*' | sort)
found=$(for f in $files; do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    # state 1: in the signature; 2: at the first body line; 3: after a
    # theory call, where a forwarder closes its body.
    state == 1 { if ($0 ~ /\{/) state = 2; next }
    state == 2 {
      if ($0 ~ /pipemare_theory::(delay_slots|recomp_delay_slots|gpipe_bubble_fraction)\(/) { state = 3; next }
      print pending; state = 0
    }
    state == 3 {
      if ($0 !~ /^[[:space:]]*}[[:space:]]*$/) print pending
      state = 0
    }
    /(^|[^a-z_])fn[[:space:]]+([a-z0-9_]*_)?(delay_slots|recomp_delay_slots|gpipe_bubble_fraction)[[:space:]]*[(<]/ {
      pending = sprintf("%s:%d", f, FNR)
      state = ($0 ~ /\{/) ? 2 : 1
    }
    END { if (state != 0) print pending }' "$f"
done)
if [[ -n "$found" ]]; then
  echo "FAIL: a closed form is defined outside crates/theory/src:"
  printf '%s\n' "$found" | sed 's/^/  /'
  exit 1
fi
echo "ok: the closed forms are defined once, in crates/theory/src ($(wc -w <<<"$files") files searched)"
