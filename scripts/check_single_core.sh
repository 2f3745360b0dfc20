#!/usr/bin/env bash
# One stage-update core, kept by a grep: the optimizer's per-chunk step,
# gradient clipping and the T2 decay γ must each be called from exactly
# one place in library code. A second call site is a second copy of the
# training step's arithmetic, and from then on only lockstep tests hold
# the two together.
#
# Counted: calls under crates/*/src, outside `#[cfg(test)]` modules
# (which end every file that has one), comments, and the crate that
# defines the function. Exit 0 = one call site each.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
check() {
  local call="$1" home="$2"
  local sites
  sites=$(for f in $(find crates/*/src -name '*.rs' -not -path "crates/$home/*"); do
    awk -v f="$f" -v call="$call" '
      /^#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*\/\// { next }
      index($0, call) { printf "%s:%d\n", f, FNR }' "$f"
  done)
  local n
  n=$(printf '%s' "$sites" | grep -c . || true)
  if [[ "$n" -ne 1 ]]; then
    echo "FAIL: $call has $n call sites outside crates/$home, expected 1:"
    printf '%s\n' "$sites" | sed 's/^/  /'
    status=1
  else
    echo "ok: $call <- $sites"
  fi
}

check 'step_chunk(' optim
check 'clip_grad_norm(' optim
check 'gamma_from_d(' theory
exit "$status"
