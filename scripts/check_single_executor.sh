#!/usr/bin/env bash
# One pipeline executor, kept by a grep. A run is described by an
# `OpenPlan` (one lazy op row per stage) and executed one op at a time by
# one stage step, `StageCursor::step`, with two drivers in
# crates/pipeline: `run_stage`, which blocks on one stage's links and has
# two callers (`with_pipeline`'s threads, `run_pipeline` being its M-call
# case, and the token worker in crates/comms over the wire), and `walk`,
# which steps every stage on the calling thread (the cursor is
# crate-private, so no other crate can drive it). Only the plan and the
# executor call `.feeds(`: a private token walk anywhere else (a test
# copying the loop) would have to, and from then on only tests would hold
# it in step with the real one. Every driver injects by one rule,
# `OpenPlan::inject_bound`: `Pipe::minibatch`, `walk` and the comms token
# hub are its three callers.
# What an op does is a `StageWork` value, and the sleep is one of them:
# `Sleep`. A second `thread::scope(` in crates/pipeline is a second
# executor; a sleep outside `impl StageWork for Sleep`, a second library
# `StageWork`, or a `work_per_stage` duration threaded through the
# executor is a second copy of what an op does, and from then on only
# tests hold the traces together; `select!`
# is arrival-order scheduling coming back, which cannot promise the fixed
# op order the plan is; and the names of the executors this replaced, and
# of the slot simulator that once built a second 1F1B order beside the
# plan's closed form, must not reappear as forwarding functions or in
# documentation; nor must the per-op function both loops once called, the
# plan's GPipe-only flush flag (the driver's lag replaced it) or the cap on
# the whole plan a token worker once built (it walks only its own row).
#
# Counted: lines under crates/*/src outside `#[cfg(test)]` modules (which
# end every file that has one) and comments. The retired names are
# searched in every *.rs, *.md, *.sh and *.yml of the repository except
# the histories (CHANGES.md, ROADMAP.md) and the driver's ISSUE.md.
# Exit 0 = one executor.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
# Prints file:line of every non-test, non-comment line under the given
# directories that contains $1 and not $2.
sites() {
  local needle="$1" except="$2"
  shift 2
  for f in $(find "$@" -name '*.rs'); do
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

expect 1 'thread::scope( in crates/pipeline' "$(sites 'thread::scope(' '' crates/pipeline/src)"
# Prints file:line of every thread::sleep( under crates/pipeline/src
# that is not inside `impl StageWork for Sleep`.
stray_sleeps() {
  for f in $(find crates/pipeline/src -name '*.rs'); do
    awk -v f="$f" '
      /^#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*\/\// { next }
      /^impl StageWork for Sleep / { inside = 1 }
      /^}/ { inside = 0 }
      index($0, "thread::sleep(") && !inside { printf "%s:%d\n", f, FNR }' "$f"
  done
}
expect 1 'thread::sleep( in crates/pipeline' "$(sites 'thread::sleep(' '' crates/pipeline/src)"
expect 0 'thread::sleep( outside impl StageWork for Sleep' "$(stray_sleeps)"
expect 1 'library StageWork impls (Sleep)' "$(sites 'StageWork for ' '' crates/*/src)"
expect 0 'work_per_stage in crates/pipeline' \
  "$(grep -rn 'work_per_stage' crates/pipeline/src || true)"
expect 1 'stage loop definitions (fn run_stage)' "$(sites 'fn run_stage<' '' crates/*/src)"
expect 2 'run_stage( callers (the stage threads and the token worker)' \
  "$(sites 'run_stage(' '' crates/*/src)"
expect 1 'stage cursor types (struct StageCursor)' "$(sites 'struct StageCursor' '' crates/*/src)"
expect 1 'stage steps (fn step) in crates/pipeline' "$(sites 'fn step<' '' crates/pipeline/src)"
expect 2 '.step( callers in crates/pipeline (run_stage and walk)' \
  "$(sites '.step(' '' crates/pipeline/src)"
expect 0 '.feeds( outside crates/pipeline/src/{plan,executor}.rs' "$(grep -rn '\.feeds(' . \
  --include='*.rs' --exclude-dir=target --exclude-dir=vendor --exclude-dir=.git |
  grep -v '^\./crates/pipeline/src/\(plan\|executor\)\.rs:' || true)"
expect 3 'inject_bound( callers (Pipe::minibatch, walk and the token hub)' \
  "$(sites 'inject_bound(' 'fn inject_bound' crates/*/src)"
expect 0 'select! in crates/pipeline' "$(grep -rn 'select!' crates/pipeline --include='*.rs' || true)"
retired='run_(threaded|recompute)_pipeline|Stage(Flow|Event)|Fwd(Outcome)|(Threaded|Recompute)PipelineReport|Slot(Op)|Schedule::(simulate)|run_stage_(op)|flush_(every)|MAX_PLAN_(CELLS)'
expect 0 'retired executor and simulator names' "$(grep -rnE "$retired" . \
  --include='*.rs' --include='*.md' --include='*.sh' --include='*.yml' \
  --exclude-dir=target --exclude-dir=vendor --exclude-dir=.git \
  --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md || true)"
if [[ -e crates/pipeline/src/stage.rs ]]; then
  echo "FAIL: crates/pipeline/src/stage.rs is back"
  status=1
fi
exit "$status"
