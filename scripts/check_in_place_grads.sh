#!/usr/bin/env bash
# Layers write their weight gradients in place, kept by a grep. The one
# backward every layer writes is `Layer::backward_into(params, cache, dy,
# grads)`, which adds the layer's gradient into a caller-owned slice of
# the model's gradient; `Layer::backward`, which returns a fresh vector,
# is the trait's provided wrapper for tests and per-layer timing. A
# layer that defines `fn backward(` again allocates a gradient-sized
# vector per call (a 640×1024 layer's is 2.6 MB) for the chain to copy,
# and a `Layer::backward` without a body makes every layer do so.
#
# Fails if `fn backward(` in crates/nn/src/layer.rs loses its body, or
# if any `impl … Layer for …` block under crates/nn/src — test modules
# included — defines `fn backward(`. Comment lines are skipped.
# Exit 0 = one backward per layer, in place.
set -euo pipefail
cd "$(dirname "$0")/.."

# One `fn backward(` in layer.rs, its signature ending in `{`.
provided=$(awk '
  /^[[:space:]]*\/\// { next }
  /fn backward\(/ { sig = 1; found++ }
  sig && index($0, "{") { body++; sig = 0 }
  sig && index($0, ";") { sig = 0 }
  END { print (found == 1 && body == 1) ? "yes" : "no" }' crates/nn/src/layer.rs)

sites=$(for f in $(find crates/nn/src -name '*.rs'); do
  awk -v f="$f" '
    /^[[:space:]]*\/\// { next }
    !inside && /^[[:space:]]*impl(<[^>]*>)?[[:space:]]+([[:alnum:]_]+::)*Layer for / { inside = 1 }
    inside && /(^|[[:space:]])fn backward\(/ { printf "%s:%d\n", f, FNR }
    inside {
      depth += gsub(/\{/, "{") - gsub(/\}/, "}")
      if (depth == 0 && index($0, "}")) inside = 0
    }' "$f"
done)

if [[ "$provided" != yes ]]; then
  echo "FAIL: crates/nn/src/layer.rs does not declare Layer::backward once, with a body"
fi
if [[ -n "$sites" ]]; then
  echo "FAIL: a Layer impl defines its own allocating backward (write backward_into):"
  printf '%s\n' "$sites" | sed 's/^/  /'
fi
[[ "$provided" == yes && -z "$sites" ]] || exit 1
echo "ok: Layer::backward is the provided wrapper, and every layer writes backward_into"
