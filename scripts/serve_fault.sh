#!/usr/bin/env bash
# Fault-injection harness for the DSE coordinator service (`mamps
# dse-serve` / `dse-work` / `dse-submit`): the scripts counterpart of
# tests/serve_protocol.rs, driving the real binaries over Unix sockets
# and injecting the two faults the service is built to survive.
#
# Four phases, each ending in a byte-diff against a cold single-process
# `mamps dse` run of the same sweep:
#
#   * happy path  — coordinator + 3 workers sweep every corpus app
#                   (examples/data and examples/generated) and one
#                   use-case sweep (`--apps`); each merged report must be
#                   byte-identical to `mamps dse`;
#   * warm start  — a fresh coordinator over the happy path's
#                   `--cache-dir` (pass cache only) serves the MJPEG
#                   sweep from its warm pass entries;
#   * worker kill — one worker is `kill -9`ed while it holds a leased
#                   range (MAMPS_DSE_WORK_DELAY_MS widens the window);
#                   the coordinator must revert the lease, a surviving
#                   worker re-evaluates it, and the report is still
#                   byte-identical;
#   * coordinator restart — the coordinator takes SIGTERM mid-sweep,
#                   flushes its spool, and a restarted coordinator seeds
#                   the resubmission from that spool: only the missing
#                   points are re-evaluated and the report is still
#                   byte-identical.
#
# On failure the coordinator logs and partial spool JSONLs are kept
# under target/serve-fault-failures/ for offline replay.
#
# Usage:
#   cargo build --release && scripts/serve_fault.sh [--quick]
#
# --quick sweeps 2 apps instead of 6 in the happy-path phase (the CI
# budget), plus the use-case sweep in both modes; the fault phases are
# identical in both modes.
set -uo pipefail
cd "$(dirname "$0")/.."

BIN=${MAMPS_BIN:-target/release/mamps}
FAILDIR=target/serve-fault-failures
QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

[ -x "$BIN" ] || { echo "serve_fault: $BIN not built (run cargo build --release first)" >&2; exit 1; }

tmp=$(mktemp -d)
SOCK="$tmp/serve.sock"
STATE="$tmp/serve-state"
CACHE="$tmp/serve-cache"
CPID=
WPIDS=()

# Kill whatever service processes are still up, quietly; every phase
# also shuts its own processes down on the success path.
cleanup() {
  [ -n "$CPID" ] && kill -9 "$CPID" 2>/dev/null
  for pid in ${WPIDS[@]+"${WPIDS[@]}"}; do kill -9 "$pid" 2>/dev/null; done
  wait 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

# Keeps the evidence (coordinator logs + partial spools) and exits.
fail() {
  echo "serve_fault: FAIL: $*" >&2
  mkdir -p "$FAILDIR"
  cp "$tmp"/coordinator-*.log "$FAILDIR/" 2>/dev/null
  cp "$STATE"/*.jsonl "$FAILDIR/" 2>/dev/null
  echo "serve_fault: evidence kept under $FAILDIR" >&2
  exit 1
}

start_coordinator() { # <log-tag> [extra args...]
  local tag=$1
  shift
  "$BIN" dse-serve --socket "$SOCK" --state-dir "$STATE" --chunk 1 "$@" \
    2>"$tmp/coordinator-$tag.log" &
  CPID=$!
  for _ in $(seq 50); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  fail "coordinator ($tag) did not create $SOCK"
}

start_worker() { # [delay-ms]
  MAMPS_DSE_WORK_DELAY_MS=${1:-0} "$BIN" dse-work --socket "$SOCK" 2>/dev/null &
  WPIDS+=($!)
}

stop_all() { # graceful: SIGTERM the coordinator, workers exit on Shutdown
  kill -TERM "$CPID" 2>/dev/null
  wait "$CPID" 2>/dev/null || fail "coordinator exited nonzero on SIGTERM"
  CPID=
  for pid in ${WPIDS[@]+"${WPIDS[@]}"}; do
    wait "$pid" 2>/dev/null || fail "worker $pid exited nonzero on coordinator shutdown"
  done
  WPIDS=()
}

# The sweep corpus: "app max-tiles" pairs. Generated scenarios reuse the
# gen_fuzz grid (3 tiles); the interchange pair sweeps to 4.
SWEEPS=(
  "examples/data/mjpeg_small_app.xml 4"
  "examples/generated/chain_s50.xml 3"
)
if ((!QUICK)); then
  SWEEPS+=(
    "examples/data/pipeline_small_app.xml 4"
    "examples/generated/split_join_s51.xml 3"
    "examples/generated/tree_s52.xml 3"
    "examples/generated/cyclic_s53.xml 3"
  )
fi

echo "== serve_fault: happy path (coordinator + 3 workers, $((${#SWEEPS[@]} + 1)) sweeps)"
start_coordinator happy --cache-dir "$CACHE"
start_worker
start_worker
start_worker
for sweep in "${SWEEPS[@]}"; do
  read -r app max <<<"$sweep"
  name=$(basename "$app" .xml)
  "$BIN" dse "$app" "$max" >"$tmp/ref-$name.txt" || fail "cold dse $name failed"
  "$BIN" dse-submit "$app" "$max" --socket "$SOCK" >"$tmp/serve-$name.txt" \
    || fail "dse-submit $name failed"
  diff "$tmp/ref-$name.txt" "$tmp/serve-$name.txt" >/dev/null \
    || fail "$name: served report differs from single-process dse"
done
# One use-case sweep, so the workers' use-case arm is diffed too.
APPS=examples/data/mjpeg_small_app.xml,examples/data/pipeline_small_app.xml,examples/data/infeasible_app.xml
"$BIN" dse 3 --apps "$APPS" --binders greedy,spiral >"$tmp/ref-apps.txt" \
  || fail "cold dse --apps failed"
"$BIN" dse-submit 3 --apps "$APPS" --binders greedy,spiral --socket "$SOCK" \
  >"$tmp/serve-apps.txt" || fail "dse-submit --apps failed"
diff "$tmp/ref-apps.txt" "$tmp/serve-apps.txt" >/dev/null \
  || fail "use-case sweep: served report differs from single-process dse"
stop_all
echo "   ${#SWEEPS[@]} binder sweep(s) and 1 use-case sweep byte-identical to single-process dse"

APP=examples/data/mjpeg_small_app.xml
REF="$tmp/ref-mjpeg_small_app.txt"

echo "== serve_fault: a fresh coordinator warmed from the happy path's --cache-dir"
rm -rf "$STATE"
start_coordinator warm --cache-dir "$CACHE"
start_worker
start_worker
"$BIN" dse-submit "$APP" 4 --socket "$SOCK" >"$tmp/serve-warm.txt" \
  || fail "dse-submit over the warm pass cache failed"
diff "$REF" "$tmp/serve-warm.txt" >/dev/null \
  || fail "report over the warm pass cache differs from single-process dse"
grep -q "^dse-serve: pass cache warmed from disk: [1-9]" "$tmp/coordinator-warm.log" \
  || fail "the coordinator did not load the happy path's pass cache"
stop_all
if ls "$CACHE"/analysis-cache-* >/dev/null 2>&1; then
  fail "the coordinator wrote an analysis cache to its --cache-dir"
fi
echo "   warm pass cache loaded, report still byte-identical"

echo "== serve_fault: kill -9 a worker holding a leased range"
rm -rf "$STATE"
start_coordinator kill
start_worker 600 # the victim: holds each completed range for 600ms
start_worker
start_worker
"$BIN" dse-submit "$APP" 4 --socket "$SOCK" --stats \
  >"$tmp/serve-kill.txt" 2>"$tmp/serve-kill.err" &
SUBPID=$!
sleep 0.4 # mid-sweep: the victim is inside its delay window
victim=${WPIDS[0]}
kill -9 "$victim" || fail "could not kill the victim worker"
wait "$victim" 2>/dev/null # reap quietly; 137 is the point
WPIDS=("${WPIDS[@]:1}")
wait "$SUBPID" || fail "dse-submit did not survive the worker kill ($(cat "$tmp/serve-kill.err"))"
diff "$REF" "$tmp/serve-kill.txt" >/dev/null \
  || fail "report after worker kill differs from single-process dse"
grep -q "reverted" "$tmp/coordinator-kill.log" \
  || fail "coordinator never reverted the dead worker's leases"
stop_all
echo "   lease reverted, report still byte-identical"

echo "== serve_fault: SIGTERM the coordinator mid-sweep, restart, resubmit"
rm -rf "$STATE"
start_coordinator restart-1
start_worker 300 # slow worker so the sweep is mid-flight at SIGTERM time
"$BIN" dse-submit "$APP" 4 --socket "$SOCK" \
  >"$tmp/serve-restart.txt" 2>"$tmp/serve-restart.err" &
SUBPID=$!
sleep 1.0 # some points done and spooled, more outstanding
kill -TERM "$CPID"
wait "$CPID" || fail "coordinator exited nonzero on mid-sweep SIGTERM"
CPID=
if wait "$SUBPID"; then
  fail "mid-shutdown submission did not report the interruption"
fi
grep -q "spooled" "$tmp/serve-restart.err" \
  || fail "interrupted submit did not mention the spooled partial sweep"
ls "$STATE"/job-*.jsonl >/dev/null 2>&1 \
  || fail "shutdown left no resumable spool in $STATE"
# The orphaned worker notices the EOF and exits 0 on its own.
for pid in ${WPIDS[@]+"${WPIDS[@]}"}; do
  wait "$pid" 2>/dev/null || fail "worker $pid exited nonzero after coordinator death"
done
WPIDS=()

start_coordinator restart-2
start_worker
start_worker
"$BIN" dse-submit "$APP" 4 --socket "$SOCK" --stats \
  >"$tmp/serve-resumed.txt" 2>"$tmp/serve-resumed.err" \
  || fail "resubmission after restart failed"
diff "$REF" "$tmp/serve-resumed.txt" >/dev/null \
  || fail "report after coordinator restart differs from single-process dse"
# The spool must have seeded at least one point: the resumed sweep
# evaluates strictly fewer points than the full sweep.
grep -qE "cache hits [1-9]" "$tmp/serve-resumed.err" \
  || fail "restarted coordinator re-evaluated everything (spool not seeded): $(grep 'serve stats' "$tmp/serve-resumed.err")"
stop_all
echo "   spool seeded the restart, report still byte-identical"

echo "serve_fault: OK"
