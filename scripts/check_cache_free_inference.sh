#!/usr/bin/env bash
# Inference builds no backward cache, kept by a grep. Every layer writes
# its own `Layer::forward_no_cache` (the trait gives it no default body,
# which would build the cache and drop it), and evaluation, serving and
# the recompute stash hook call it. So library code under
# crates/{nn,core,serve}/src never runs a training forward only to
# discard its cache: no `….forward(…).0` and no `let (y, _) =
# ….forward(…)`, for any `forward*`, `encode` or `decode` call. An
# 80-image evaluation through the training forward holds every layer's
# cache at once, ≈19 MB for the ResNet stand-in.
#
# Allowed: `Transformer::{greedy,beam}_decode`, whose encoder and decoder
# are not a layer chain and have no cache-free pass yet (ROADMAP.md item
# 10).
#
# Counted: lines outside `#[cfg(test)]` modules (which end every file
# that has one) and comments. Exit 0 = no cache built to be dropped.
set -euo pipefail
cd "$(dirname "$0")/.."

default_body=$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /fn forward_no_cache\(/ { sig = 1 }
  sig && index($0, "{") { printf "crates/nn/src/layer.rs:%d\n", FNR; sig = 0 }
  sig && index($0, ";") { sig = 0 }' crates/nn/src/layer.rs)

call='\.(forward[[:alnum:]_]*|encode|decode)\('
sites=$(for f in $(find crates/nn/src crates/core/src crates/serve/src -name '*.rs'); do
  awk -v f="$f" -v call="$call" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /(^|[[:space:]])fn [[:alnum:]_]+/ {
      fn = $0; sub(/.*fn /, "", fn); sub(/[^[:alnum:]_].*/, "", fn)
    }
    $0 ~ (call ".*\\)\\.0([^[:alnum:]_]|$)") || $0 ~ ("let \\([[:alnum:]_]+, _\\) = .*" call) {
      printf "%s:%d (fn %s)\n", f, FNR, fn
    }' "$f"
done | grep -vE '^crates/nn/src/transformer\.rs:[0-9]+ \(fn (greedy|beam)_decode\)$' || true)

if [[ -n "$default_body" ]]; then
  echo "FAIL: Layer::forward_no_cache has a default body:"
  printf '%s\n' "$default_body" | sed 's/^/  /'
fi
if [[ -n "$sites" ]]; then
  echo "FAIL: library code runs a training forward and discards its cache:"
  printf '%s\n' "$sites" | sed 's/^/  /'
fi
[[ -z "$default_body$sites" ]] || exit 1
echo "ok: every layer writes its cache-free pass, and no library code drops a training cache"
