#!/usr/bin/env bash
# One convolution data path, kept by a grep: the patch matrix
# (`im2col` → GEMM → `col2im`, with its batch-sized per-thread scratch)
# was replaced by the blocked passes of crates/tensor/src/conv.rs and
# survives only as the test oracle in crates/tensor/tests/conv_oracle.
# A call to `im2col(`, `col2im(` or `with_conv_scratch(` from library,
# example, bench or benchmark code is that path coming back as a second
# one, and from then on only tests hold the two together.
#
# Scanned: every .rs file under src/, examples/, crates/*/src,
# crates/*/benches and pmbench/src, outside `#[cfg(test)]` items (which
# end every file that has one) and comments. Exit 0 = no call site.
set -euo pipefail
cd "$(dirname "$0")/.."

sites=$(for f in $(find src examples crates/*/src crates/*/benches pmbench/src -name '*.rs'); do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /(^|[^[:alnum:]_])(im2col|col2im|with_conv_scratch)\(/ { printf "%s:%d: %s\n", f, FNR, $0 }' "$f"
done)

if [[ -n "$sites" ]]; then
  echo "FAIL: the patch-matrix path has call sites outside #[cfg(test)]:"
  printf '%s\n' "$sites" | sed 's/^/  /'
  exit 1
fi
echo "ok: no im2col( / col2im( / with_conv_scratch( call site outside #[cfg(test)]"
