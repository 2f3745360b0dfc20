#!/usr/bin/env bash
# One epoch loop, kept by a grep. Image and translation runs go through
# the one epoch loop, `run` in crates/core/src/runners.rs (shuffled
# minibatches, T3 warmup, microbatch split, divergence and health-halt
# records, per-epoch evaluation); a `Task` supplies only how a
# microbatch is built and how the parameters are scored. Regression
# keeps its own step loop, `run_regression_training`: its batch is the
# fixed, unshuffled full dataset. A second `MinibatchIter::new(` or a
# third in-process `train_minibatch(` call in crates/core is a second
# copy of that loop, and from then on only tests hold the two together.
# The distributed trainer's `drive` in distributed.rs steps a
# `DistributedTrainer` over the caller's own minibatch iterator and is
# counted on its own. The per-family entry points `run` replaced must
# not reappear anywhere.
#
# Counted: lines under crates/core/src outside `#[cfg(test)]` modules
# (which end every file that has one) and comments. The retired names
# are searched in every *.rs, *.sh and *.yml of the repository, in every
# *.md below the top level, and in the top-level README.md, DESIGN.md
# and EXPERIMENTS.md; the other top-level notes (histories, plans, paper
# excerpts) may still name them. The image name also covers its
# `_observed` and `_with_metrics` variants.
# Exit 0 = one epoch loop.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
# Prints file:line of every non-test, non-comment line in the given
# files that contains $1 and not $2.
sites() {
  local needle="$1" except="$2"
  shift 2
  for f in "$@"; do
    awk -v f="$f" -v needle="$needle" -v except="$except" '
      /^#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*\/\// { next }
      index($0, needle) && !(except != "" && index($0, except)) { printf "%s:%d\n", f, FNR }' "$f"
  done
}
expect() {
  local want="$1" what="$2" found="$3"
  local n
  n=$(printf '%s' "$found" | grep -c . || true)
  if [[ "$n" -ne "$want" ]]; then
    echo "FAIL: $what: found $n, expected $want"
    printf '%s\n' "$found" | sed '/^$/d; s/^/  /'
    status=1
  else
    echo "ok: $what${found:+ <- $found}"
  fi
}

core=$(find crates/core/src -name '*.rs' -not -name distributed.rs | sort)
expect 1 'MinibatchIter::new( in crates/core (the epoch loop)' \
  "$(sites 'MinibatchIter::new(' '' $core crates/core/src/distributed.rs)"
expect 2 'train_minibatch( calls in crates/core (the epoch loop and the regression loop)' \
  "$(sites 'train_minibatch(' 'fn train_minibatch(' $core)"
expect 1 'train_minibatch( calls in distributed.rs (drive)' \
  "$(sites 'train_minibatch(' '' crates/core/src/distributed.rs)"
# Split so that this script does not match itself.
retired=(-e 'run_image_''training' -e 'run_translation_''training'
  -e 'run_regression_training_''observed')
docs=$(find . -mindepth 2 -name '*.md' \
  -not -path './target/*' -not -path './vendor/*' -not -path './.git/*')
expect 0 'retired runner names' "$( {
  grep -rn "${retired[@]}" . \
    --include='*.rs' --include='*.sh' --include='*.yml' \
    --exclude-dir=target --exclude-dir=vendor --exclude-dir=.git
  grep -n "${retired[@]}" README.md DESIGN.md EXPERIMENTS.md $docs
} || true)"
exit "$status"
