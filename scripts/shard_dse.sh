#!/usr/bin/env bash
# Sharded-DSE equivalence check over the checked-in example corpus: runs
# the same sweep unsharded and as three `mamps dse --shard i/3` processes,
# merges the shard files with `mamps dse-merge`, and requires the merged
# report to be byte-for-byte identical to the unsharded one — for both
# the single-application (--binders) sweep and the use-case (--apps)
# sweep. Runs the binder sweep again as two shards sharing one
# --cache-dir, cold and then twice warm: every merge must equal the
# unsharded report, every warm shard must replay without a pass-cache
# miss, and the second warm round must leave every cache file with the
# bytes the first left. Also exercises the merge's failure modes
# (missing shard, overlapping shards). Used by scripts/smoke.sh and the
# CI smoke job, and runnable locally:
#
#   cargo build --release && scripts/shard_dse.sh
set -euo pipefail
cd "$(dirname "$0")/.."

APP=examples/data/mjpeg_small_app.xml
APP2=examples/data/pipeline_small_app.xml
BIN=${MAMPS_BIN:-target/release/mamps}
N=3

fail() { echo "shard_dse: FAIL: $*" >&2; exit 1; }

[ -x "$BIN" ] || fail "$BIN not built (run cargo build --release first)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== binder sweep: unsharded vs $N-shard merge"
"$BIN" dse "$APP" 4 --binders greedy,spiral > "$tmp/full.txt"
for i in $(seq 0 $((N - 1))); do
  # Independent processes: exactly how the shards would run on a cluster.
  "$BIN" dse "$APP" 4 --binders greedy,spiral \
    --shard "$i/$N" --out "$tmp/binders.$i.jsonl" &
done
wait
"$BIN" dse-merge "$tmp"/binders.*.jsonl > "$tmp/merged.txt"
cmp "$tmp/full.txt" "$tmp/merged.txt" \
  || fail "merged binder sweep differs from the unsharded report"
grep -q "pareto front" "$tmp/merged.txt" \
  || fail "merged report lost the recomputed pareto front"

echo "== binder sweep: 2 shards sharing one --cache-dir, cold then warm twice"
for round in cold warm1 warm2; do
  pids=()
  for i in 0 1; do
    "$BIN" dse "$APP" 4 --binders greedy,spiral --shard "$i/2" \
      --out "$tmp/cached.$round.$i.jsonl" --cache-dir "$tmp/cache" --stats \
      2> "$tmp/cached.$round.$i.err" &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do wait "$pid"; done
  "$BIN" dse-merge "$tmp"/cached.$round.*.jsonl > "$tmp/cached.$round.txt"
  cmp "$tmp/full.txt" "$tmp/cached.$round.txt" \
    || fail "merged $round sweep over a shared cache directory differs from the unsharded report"
  if [ "$round" != cold ]; then
    for i in 0 1; do
      grep -q "^pass cache: [0-9]* hits / 0 misses" "$tmp/cached.$round.$i.err" \
        || fail "$round shard $i: $(grep "^pass cache:" "$tmp/cached.$round.$i.err")"
    done
  fi
  if [ "$round" = warm1 ]; then cp -r "$tmp/cache" "$tmp/cache.warm1"; fi
done
diff -rq "$tmp/cache.warm1" "$tmp/cache" \
  || fail "the second warm round changed a shared cache file's bytes"

echo "== use-case sweep: unsharded vs $N-shard merge"
"$BIN" dse 3 --apps "$APP,$APP2" --binders greedy,spiral > "$tmp/ucfull.txt"
for i in $(seq 0 $((N - 1))); do
  "$BIN" dse 3 --apps "$APP,$APP2" --binders greedy,spiral \
    --shard "$i/$N" --out "$tmp/apps.$i.jsonl" &
done
wait
"$BIN" dse-merge "$tmp"/apps.*.jsonl > "$tmp/ucmerged.txt"
cmp "$tmp/ucfull.txt" "$tmp/ucmerged.txt" \
  || fail "merged use-case sweep differs from the unsharded report"

echo "== merge failure modes"
if "$BIN" dse-merge "$tmp/binders.0.jsonl" "$tmp/binders.1.jsonl" >/dev/null 2>"$tmp/err"; then
  fail "merge accepted an incomplete shard set"
fi
grep -q "missing shard" "$tmp/err" || fail "missing-shard error not reported: $(cat "$tmp/err")"
if "$BIN" dse-merge "$tmp"/binders.*.jsonl "$tmp/binders.1.jsonl" >/dev/null 2>"$tmp/err"; then
  fail "merge accepted overlapping shards"
fi
grep -q "overlapping" "$tmp/err" || fail "overlap error not reported: $(cat "$tmp/err")"
if "$BIN" dse-merge "$tmp/binders.0.jsonl" "$tmp/apps.0.jsonl" >/dev/null 2>&1; then
  fail "merge accepted shards of different sweeps"
fi

echo "shard_dse: OK"
