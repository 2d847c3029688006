#!/usr/bin/env bash
# Incremental-equivalence gate: re-mapping through the on-disk pass cache
# must be byte-for-byte identical to mapping from scratch — warm replays
# of unchanged inputs, and incremental re-runs after a one-WCET edit,
# over the checked-in example corpus. Stdout is compared byte for byte;
# stderr carries the cache/pass statistics, which legitimately differ
# between cold and warm runs, and only the use-case sweep's replay counts
# are checked there. Run by CI's "Incremental equivalence" step and by
# smoke.sh:
#
#   cargo build --release && scripts/incremental_equiv.sh
set -euo pipefail
cd "$(dirname "$0")/.."

APP=examples/data/mjpeg_small_app.xml
APP2=examples/data/pipeline_small_app.xml
ARCH=examples/data/fsl_3tile_arch.xml
BIN=${MAMPS_BIN:-target/release/mamps}

fail() { echo "incremental_equiv: FAIL: $*" >&2; exit 1; }

[ -x "$BIN" ] || fail "$BIN not built (run cargo build --release first)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The one-WCET edit: the pipeline work actor's execution time 700 -> 707.
# The string "700" appears exactly once in the example, and the edit keeps
# the binder's decreasing-work placement order stable, so only the edited
# application's WCET-sensitive passes recompute.
sed 's/"700"/"707"/g' "$APP2" >"$tmp/pipeline_edit.xml"
cmp -s "$APP2" "$tmp/pipeline_edit.xml" && fail "WCET edit changed nothing"

echo "== map cold -> remap warm (byte-identical)"
"$BIN" map "$APP" "$ARCH" --cache-dir "$tmp/cache" >"$tmp/map-cold.txt"
[ -s "$tmp/cache/pass-cache-0-of-1.jsonl" ] \
  || fail "--cache-dir left no pass-cache file"
"$BIN" remap "$APP" "$ARCH" --cache-dir "$tmp/cache" >"$tmp/remap-warm.txt"
diff -u "$tmp/map-cold.txt" "$tmp/remap-warm.txt" \
  || fail "warm remap differs from the cold map (diff above)"

echo "== remap without --cache-dir is a usage error"
if "$BIN" remap "$APP" "$ARCH" 2>"$tmp/remap-err.txt"; then
  fail "remap without --cache-dir did not fail"
fi
grep -q -- "--cache-dir" "$tmp/remap-err.txt" \
  || fail "remap error does not name --cache-dir"

echo "== map-multi incremental after one-WCET edit (byte-identical to cold)"
"$BIN" map-multi "$APP" "$APP2" "$ARCH" --iters 60 \
  --cache-dir "$tmp/mcache" >/dev/null
"$BIN" map-multi "$APP" "$tmp/pipeline_edit.xml" "$ARCH" --iters 60 \
  --cache-dir "$tmp/mcache" >"$tmp/multi-incr.txt"
"$BIN" map-multi "$APP" "$tmp/pipeline_edit.xml" "$ARCH" --iters 60 \
  >"$tmp/multi-cold.txt"
diff -u "$tmp/multi-cold.txt" "$tmp/multi-incr.txt" \
  || fail "incremental map-multi differs from the cold run (diff above)"

echo "== use-case dse delta sweep after one-WCET edit (byte-identical to cold)"
"$BIN" dse 3 --apps "$APP,$APP2" --cache-dir "$tmp/dcache" >/dev/null
# Use-case sweeps have no golden cache pin, so the replay counts are what
# shows a key that silently stopped matching. An unchanged re-run replays
# all 30 memoized passes (12 bind, 12 buffer-size, 6 verify-shared).
"$BIN" dse 3 --apps "$APP,$APP2" --cache-dir "$tmp/dcache" --stats \
  >/dev/null 2>"$tmp/dse-warm.err"
grep -q '^pass cache: 30 hits / 0 misses /' "$tmp/dse-warm.err" \
  || fail "unchanged use-case re-run: $(grep '^pass cache:' "$tmp/dse-warm.err")"
"$BIN" dse 3 --apps "$APP,$tmp/pipeline_edit.xml" \
  --cache-dir "$tmp/dcache" --stats >"$tmp/dse-incr.txt" 2>"$tmp/dse-incr.err"
# MJPEG replays bind and buffer-size at its 6 points; the edited pipeline
# reruns them at its 6.
for pass in bind buffer-size; do
  awk -v p="$pass" '$1 == p && $2 == 6 && $3 == 6 { ok = 1 } END { exit !ok }' \
    "$tmp/dse-incr.err" \
    || fail "delta sweep $pass row, want 6 runs and 6 hits: $(grep "^$pass " "$tmp/dse-incr.err")"
done
"$BIN" dse 3 --apps "$APP,$tmp/pipeline_edit.xml" >"$tmp/dse-cold.txt"
diff -u "$tmp/dse-cold.txt" "$tmp/dse-incr.txt" \
  || fail "delta dse sweep differs from the cold run (diff above)"

echo "== simulate with --cache-dir (byte-identical to plain simulate)"
"$BIN" simulate "$APP" "$ARCH" 50 >"$tmp/sim-plain.txt"
"$BIN" simulate "$APP" "$ARCH" 50 --cache-dir "$tmp/scache" >"$tmp/sim-cold.txt"
"$BIN" simulate "$APP" "$ARCH" 50 --cache-dir "$tmp/scache" >"$tmp/sim-warm.txt"
diff -u "$tmp/sim-plain.txt" "$tmp/sim-cold.txt" \
  || fail "cached simulate differs from the plain run (diff above)"
diff -u "$tmp/sim-cold.txt" "$tmp/sim-warm.txt" \
  || fail "warm simulate differs from the cold run (diff above)"

echo "incremental_equiv: OK"
