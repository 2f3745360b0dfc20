#!/usr/bin/env bash
# One convolution data path, kept by a grep: the patch matrix
# (`im2col` → GEMM → `col2im`, with its batch-sized per-thread scratch)
# was replaced by the blocked passes of crates/tensor/src/conv.rs and
# survives only as the test oracle, the dev-only crate crates/conv-oracle.
# A call to `im2col(`, `col2im(` or `with_conv_scratch(` from library,
# example, bench or benchmark code is that path coming back as a second
# one, and from then on only tests hold the two together. So is a
# manifest that names the oracle crate anywhere but under
# `[dev-dependencies]`.
#
# Scanned: every .rs file under src/, examples/, crates/*/src (the oracle
# crate's own excepted), crates/*/benches and pmbench/src, outside
# `#[cfg(test)]` items (which end every file that has one) and comments;
# and every Cargo.toml but the oracle's own. Exit 0 = no call site, no edge.
set -euo pipefail
cd "$(dirname "$0")/.."

sources=$(find src examples crates/*/src crates/*/benches pmbench/src -name '*.rs' \
  -not -path 'crates/conv-oracle/*')
sites=$(for f in $sources; do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /(^|[^[:alnum:]_])(im2col|col2im|with_conv_scratch)\(/ { printf "%s:%d: %s\n", f, FNR, $0 }' "$f"
done)

manifests=$(find Cargo.toml crates/*/Cargo.toml pmbench/Cargo.toml -not -path 'crates/conv-oracle/*')
edges=$(for f in $manifests; do
  awk -v f="$f" '
    /^\[/ { dev = ($0 == "[dev-dependencies]") }
    /conv-oracle/ && !dev { printf "%s:%d: %s\n", f, FNR, $0 }' "$f"
done)

if [[ -n "$sites$edges" ]]; then
  echo "FAIL: the patch-matrix path is reachable outside tests:"
  printf '%s\n' "$sites" "$edges" | sed '/^$/d; s/^/  /'
  exit 1
fi
echo "ok: no im2col( / col2im( / with_conv_scratch( call site outside #[cfg(test)], and the oracle crate is a dev-dependency only"
