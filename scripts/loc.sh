#!/usr/bin/env bash
# Library size: per crate and in total, the lines of crates/*/src/**/*.rs
# before each file's first column-0 `#[cfg(test)]` (the unit tests and
# the test-only helpers after it are not library code). This is the size
# ROADMAP.md's budget is counted in.
#
# Usage: scripts/loc.sh [repo-root]   (default: this script's repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
  name=$(basename "$crate")
  n=$(find "$crate/src" -name '*.rs' -print0 | sort -z \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')
  printf '%-12s %6d\n' "$name" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
