#!/usr/bin/env bash
# One byte codec, kept by a grep. Wire frames, journal segments and
# checkpoints are all written by `pipemare_telemetry::codec::Writer` and
# read by its `Reader`; the u32 frame prefix and its cap are the codec's
# `frame_prefix`/`frame_len` and `MAX_FRAME`. A `to_le_bytes(` or
# `from_le_bytes(` anywhere else in library code is a second codec in
# the making (one that trusts lengths it reads, or splits frames by
# hand), and a second frame-length constant is a second idea of how
# large a frame may be.
#
# Counted: lines under crates/*/src outside `#[cfg(test)]` modules (which
# end every file that has one) and comments. Exit 0 = one codec.
set -euo pipefail
cd "$(dirname "$0")/.."

home=crates/telemetry/src/codec.rs
status=0
# Prints file:line of every non-test, non-comment line under crates/*/src
# (outside the codec) that matches the extended regex $1.
sites() {
  local pattern="$1"
  for f in $(find crates/*/src -name '*.rs' -not -path "$home"); do
    awk -v f="$f" -v pattern="$pattern" '
      /^#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*\/\// { next }
      $0 ~ pattern { printf "%s:%d\n", f, FNR }' "$f"
  done
}
expect_none() {
  local what="$1" found="$2"
  if [[ -n "$found" ]]; then
    echo "FAIL: $what outside $home:"
    printf '%s\n' "$found" | sed 's/^/  /'
    status=1
  else
    echo "ok: no $what outside $home"
  fi
}

expect_none 'to_le_bytes(/from_le_bytes(' "$(sites '(to|from)_le_bytes\(')"
# A frame-length cap: a constant named for frames and a bound.
expect_none 'frame-length cap' \
  "$(sites 'const [A-Z0-9_]*(MAX|CAP|LIMIT|BYTES|LEN)[A-Z0-9_]*FRAME|const [A-Z0-9_]*FRAME[A-Z0-9_]*(MAX|CAP|LIMIT|BYTES|LEN)')"
if ! grep -q '^pub const MAX_FRAME: usize' "$home"; then
  echo "FAIL: $home does not define MAX_FRAME"
  status=1
fi
exit "$status"
