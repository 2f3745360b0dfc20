#!/usr/bin/env bash
# No sleep-polls on the serving or live-stats path, kept by a grep. The
# serving batcher parks until a reader, `resume_batcher` or `shutdown`
# unparks it, a loopback receive with a timeout blocks on the channel's
# condition variable, and the stats endpoint blocks in `accept` (its
# `stop` wakes it with a connection). A `thread::sleep(` in the serve,
# comms or telemetry library is a poll loop coming back: every request
# or scrape then pays up to one sleep of latency and every idle thread
# burns a core waking up to find nothing.
#
# Counted: lines under crates/serve/src, crates/comms/src and
# crates/telemetry/src outside `#[cfg(test)]` modules (which end every
# file that has one) and comments. Not counted: the telemetry binaries
# under crates/telemetry/src/bin, where `pm top --watch`'s sleep is its
# refresh interval. Exit 0 = no sleep-polls.
set -euo pipefail
cd "$(dirname "$0")/.."

found=$(for f in $(find crates/serve/src crates/comms/src crates/telemetry/src \
    -name '*.rs' -not -path 'crates/telemetry/src/bin/*'); do
  awk -v f="$f" '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    index($0, "thread::sleep(") { printf "%s:%d\n", f, FNR }' "$f"
done)
if [[ -n "$found" ]]; then
  echo "FAIL: thread::sleep( in serve/comms/telemetry library code:"
  printf '%s\n' "$found" | sed 's/^/  /'
  exit 1
fi
echo "ok: no thread::sleep( in serve/comms/telemetry library code"
