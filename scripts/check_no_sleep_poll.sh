#!/usr/bin/env bash
# No sleep-polls on the serving path, kept by a grep. The serving batcher
# parks until a reader, `resume_batcher` or `shutdown` unparks it, and a
# loopback receive with a timeout blocks on the channel's condition
# variable. A `thread::sleep(` in the serve or comms library is a poll
# loop coming back: every request then pays up to one sleep of latency
# and every idle thread burns a core waking up to find nothing.
#
# Counted: lines under crates/serve/src and crates/comms/src outside
# `#[cfg(test)]` modules (which end every file that has one) and
# comments. Exit 0 = no sleep-polls.
set -euo pipefail
cd "$(dirname "$0")/.."

found=$(for f in $(find crates/serve/src crates/comms/src -name '*.rs'); do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    index($0, "thread::sleep(") { printf "%s:%d\n", f, FNR }' "$f"
done)
if [[ -n "$found" ]]; then
  echo "FAIL: thread::sleep( in serve/comms library code:"
  printf '%s\n' "$found" | sed 's/^/  /'
  exit 1
fi
echo "ok: no thread::sleep( in serve/comms library code"
