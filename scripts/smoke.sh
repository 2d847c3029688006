#!/usr/bin/env bash
# End-to-end smoke test of the release `mamps` binary against the
# checked-in interchange pair under examples/data/. Used by the CI smoke
# job and runnable locally:
#
#   cargo build --release && scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

APP=examples/data/mjpeg_small_app.xml
APP2=examples/data/pipeline_small_app.xml
APP3=examples/data/infeasible_app.xml
ARCH=examples/data/fsl_3tile_arch.xml
BIN=${MAMPS_BIN:-target/release/mamps}

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

[ -x "$BIN" ] || fail "$BIN not built (run cargo build --release first)"

echo "== mamps analyze"
out=$("$BIN" analyze "$APP")
echo "$out"
grep -q "consistent" <<<"$out" || fail "analyze did not report consistency"
grep -q "iterations/cycle" <<<"$out" || fail "analyze printed no throughput"

echo "== mamps map"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$("$BIN" map "$APP" "$ARCH" "$tmp/mapping.xml")
echo "$out"
# Guaranteed worst-case throughput must be printed and nonzero: the
# mantissa of the scientific-notation figure must contain a nonzero digit.
bound=$(grep -oE '[0-9]+\.[0-9]+e-?[0-9]+' <<<"$out" | head -1)
[ -n "$bound" ] || fail "map printed no throughput bound"
grep -qE '[1-9]' <<<"${bound%%e*}" || fail "guaranteed throughput is zero: $bound"
[ -s "$tmp/mapping.xml" ] || fail "mapping.xml not written"
grep -q "<mapping>" "$tmp/mapping.xml" || fail "mapping.xml malformed"

echo "== mamps simulate"
out=$("$BIN" simulate "$APP" "$ARCH" 50)
echo "$out"
grep -q "HOLDS" <<<"$out" || fail "throughput guarantee violated in simulation"

echo "== mamps dse"
out=$("$BIN" dse "$APP" 4)
echo "$out"
grep -qE '[1-9]' <<<"$out" || fail "dse printed no nonzero figures"

echo "== mamps dse --cache-dir (cold vs warm runs byte-identical)"
"$BIN" dse "$APP" 4 --cache-dir "$tmp/cache" >"$tmp/dse-cold.txt"
[ -s "$tmp/cache/analysis-cache-0-of-1.jsonl" ] || fail "--cache-dir left no cache file"
CACHE_FILES="analysis-cache-0-of-1.jsonl pass-cache-0-of-1.jsonl"
mkdir "$tmp/cold-cache"
for f in $CACHE_FILES; do cp "$tmp/cache/$f" "$tmp/cold-cache/$f"; done
same_cache_files() {
  for f in $CACHE_FILES; do
    cmp "$tmp/cold-cache/$f" "$tmp/cache/$f" || fail "$f differs from the cold run's after $1"
  done
}
# Inode, mtime and size: a warm run that changed nothing must not even
# rewrite the files with equal bytes.
stamps() { for f in $CACHE_FILES; do stat -c '%i %Y %s' "$tmp/cache/$f"; done; }
cold_stamps=$(stamps)
"$BIN" dse "$APP" 4 --cache-dir "$tmp/cache" >"$tmp/dse-warm.txt"
diff -u "$tmp/dse-cold.txt" "$tmp/dse-warm.txt" \
  || fail "warm-cache dse report differs from the cold run"
same_cache_files "a warm run"
[ "$(stamps)" = "$cold_stamps" ] || fail "a warm run rewrote an unchanged cache file"
# A warm sweep looks no analysis up, so its analysis cache file is
# attached unparsed, and it stays as it was.
"$BIN" dse "$APP" 4 --cache-dir "$tmp/cache" --stats >/dev/null 2>"$tmp/dse-warm-stats.txt"
grep -q '^cache warmed from disk: .*(attached, parsed on first use)$' "$tmp/dse-warm-stats.txt" \
  || fail "a warm run did not attach its analysis cache file unparsed"
[ "$(stamps)" = "$cold_stamps" ] || fail "a warm --stats run rewrote an unchanged cache file"
# A line torn inside a multi-byte character is skipped like any torn
# line, and the next persist restores the canonical file.
printf '{"graph":1,"caps":[],"result":{"Err":{"Deadlock":"caf\xc3' \
  >>"$tmp/cache/analysis-cache-0-of-1.jsonl"
"$BIN" dse "$APP" 4 --cache-dir "$tmp/cache" >"$tmp/dse-torn.txt" \
  || fail "a cache line torn inside a character failed the run"
diff -u "$tmp/dse-cold.txt" "$tmp/dse-torn.txt" \
  || fail "dse report over a torn cache file differs from the cold run"
same_cache_files "a run over a torn cache file"
# A whole line that is not one JSON object keeps the file from being
# attached: it is skipped, and the next persist restores the file.
printf 'not json\n' >>"$tmp/cache/analysis-cache-0-of-1.jsonl"
"$BIN" dse "$APP" 4 --cache-dir "$tmp/cache" >"$tmp/dse-not-json.txt"
diff -u "$tmp/dse-cold.txt" "$tmp/dse-not-json.txt" \
  || fail "dse report over a line that is not JSON differs from the cold run"
same_cache_files "a run over a line that is not JSON"
# An entry of a pass that no longer memoizes is dropped on load, and the
# next persist leaves it out.
printf '{"pass":"schedule","input":1,"output":{"Ok":[]}}\n' \
  >>"$tmp/cache/pass-cache-0-of-1.jsonl"
"$BIN" dse "$APP" 4 --cache-dir "$tmp/cache" >"$tmp/dse-dead.txt"
diff -u "$tmp/dse-cold.txt" "$tmp/dse-dead.txt" \
  || fail "dse report over a dead pass-cache entry differs from the cold run"
same_cache_files "a run over a dead pass-cache entry"

echo "== mamps dse --resume (torn partial, byte-identical to cold)"
"$BIN" dse "$APP" 4 --shard 0/2 --out "$tmp/part.jsonl"
head -n -1 "$tmp/part.jsonl" >"$tmp/part-torn.jsonl"
printf '{"Record":{"seq":9' >>"$tmp/part-torn.jsonl" # simulate a crash mid-write
"$BIN" dse "$APP" 4 --resume "$tmp/part-torn.jsonl" >"$tmp/dse-resumed.txt" 2>"$tmp/resume-err.txt"
diff -u "$tmp/dse-cold.txt" "$tmp/dse-resumed.txt" \
  || fail "resumed dse report differs from the cold run"
grep -q "ends mid-record" "$tmp/resume-err.txt" \
  || fail "torn resume file produced no mid-record warning"
# Overlapping partials of two shardings: the torn 0/2 file and shard 1/3
# share seqs, and the first outcome of each seq is kept.
for i in 0 1 2; do "$BIN" dse "$APP" 4 --shard "$i/3" --out "$tmp/third.$i.jsonl"; done
"$BIN" dse "$APP" 4 --resume "$tmp/part-torn.jsonl" --resume "$tmp/third.1.jsonl" \
  >"$tmp/dse-resumed-overlap.txt" 2>/dev/null
diff -u "$tmp/dse-cold.txt" "$tmp/dse-resumed-overlap.txt" \
  || fail "dse resumed from overlapping partials differs from the cold run"

echo "== mamps dse-merge (a repeat and a loss are both named)"
n=$(grep -o '"total_configs":[0-9]*' "$tmp/third.0.jsonl" | cut -d: -f2)
cp "$tmp/third.0.jsonl" "$tmp/lossy.0.jsonl"
tail -n 1 "$tmp/third.0.jsonl" >>"$tmp/lossy.0.jsonl"
head -n -1 "$tmp/third.1.jsonl" >"$tmp/lossy.1.jsonl"
cp "$tmp/third.2.jsonl" "$tmp/lossy.2.jsonl"
if "$BIN" dse-merge "$tmp"/lossy.*.jsonl >/dev/null 2>"$tmp/lossy-err.txt"; then
  fail "dse-merge accepted shard files that repeat one record and lose another"
fi
grep -q "records cover $n of $n design points: 1 design point missing (truncated shard file?), 1 record repeated" \
  "$tmp/lossy-err.txt" || fail "repeat and loss not both reported: $(cat "$tmp/lossy-err.txt")"

echo "== mamps dse-merge (a repeated record line is not a complete sweep)"
n=$(grep -o '"total_configs":[0-9]*' "$tmp/third.0.jsonl" | cut -d: -f2)
tail -n 1 "$tmp/third.1.jsonl" >>"$tmp/third.1.jsonl"
if "$BIN" dse-merge "$tmp"/third.*.jsonl >/dev/null 2>"$tmp/merge-err.txt"; then
  fail "dse-merge accepted a shard file that repeats a record"
fi
grep -q "records cover $((n + 1)) of $n design points" "$tmp/merge-err.txt" \
  || fail "repeated record not reported: $(cat "$tmp/merge-err.txt")"

echo "== mamps dse --stats"
"$BIN" dse "$APP" 4 --stats >"$tmp/stats-report.txt" 2>"$tmp/stats.txt"
grep -q "analysis cache:" "$tmp/stats.txt" || fail "--stats printed no cache counters"
grep -q "pass wall time" "$tmp/stats.txt" || fail "--stats printed no per-pass timings"
# A sweep renders no project, but every mapped design point still runs
# the platform check, and every checked one boots. The report's feasible
# rows and its generation and boot skips fix both run counts, so a sweep
# that dropped either step fails here while printing the same report.
points=$(grep -cE '^[* ] +[a-z]+ +[0-9]+ +(fsl|noc) +[0-9.]+e' "$tmp/stats-report.txt" || true)
gen_skips=$(grep -c 'generation step failed' "$tmp/stats-report.txt" || true)
boot_skips=$(grep -c 'platform run failed' "$tmp/stats-report.txt" || true)
[ "$points" -gt 0 ] || fail "dse --stats printed no feasible design point"
grep -qE "^platform-gen +$((points + gen_skips + boot_skips)) " "$tmp/stats.txt" \
  || fail "dse --stats: platform-gen did not run once per mapped design point"
grep -qE "^boot-sim +$((points + boot_skips)) " "$tmp/stats.txt" \
  || fail "dse --stats: boot-sim did not run once per checked design point"

echo "== mamps map --stats (per-pass table)"
"$BIN" map "$APP" "$ARCH" --stats >/dev/null 2>"$tmp/map-stats.txt"
grep -qE 'pass +runs +hits +wall' "$tmp/map-stats.txt" \
  || fail "map --stats printed no per-pass table header"
for pass in bind wire-alloc schedule buffer-size; do
  grep -q "$pass" "$tmp/map-stats.txt" || fail "map --stats lost the $pass pass"
done
# The memo contract: a warm map replays bind and buffer-size and reruns
# wire-alloc and schedule, which cost less to run than to replay.
"$BIN" map "$APP" "$ARCH" --cache-dir "$tmp/map-cache" >/dev/null 2>&1
"$BIN" map "$APP" "$ARCH" --cache-dir "$tmp/map-cache" --stats >/dev/null 2>"$tmp/map-warm.txt"
for row in "bind 0 1" "wire-alloc 1 0" "schedule 1 0" "buffer-size 0 1"; do
  read -r pass runs hits <<<"$row"
  grep -qE "^$pass +$runs +$hits " "$tmp/map-warm.txt" \
    || fail "warm map --stats: $pass is not at $runs runs and $hits hits"
done

echo "== mamps map --binder spiral"
out=$("$BIN" map "$APP" "$ARCH" --binder spiral)
echo "$out"
grep -q "binder: spiral" <<<"$out" || fail "map did not attribute the spiral binder"

echo "== mamps dse --binders greedy,spiral"
out=$("$BIN" dse "$APP" 4 --binders greedy,spiral)
echo "$out"
grep -q "greedy" <<<"$out" || fail "dse strategy sweep lost the greedy points"
grep -q "spiral" <<<"$out" || fail "dse strategy sweep lost the spiral points"
grep -q "pareto front" <<<"$out" || fail "dse printed no pareto summary"

echo "== mamps map-multi (MJPEG + pipeline + infeasible burst)"
out=$("$BIN" map-multi "$APP" "$APP2" "$APP3" "$ARCH" --iters 60)
echo "$out"
grep -q "2 of 3 applications admitted" <<<"$out" \
  || fail "map-multi did not admit exactly the two feasible apps"
grep -q "mjpeg: ADMITTED" <<<"$out" || fail "map-multi lost the MJPEG app"
grep -q "pipeline: ADMITTED" <<<"$out" || fail "map-multi lost the pipeline app"
grep -q "burst: REJECTED" <<<"$out" || fail "map-multi admitted the infeasible app"
grep -q "reason: mapping failed" <<<"$out" || fail "rejection carries no structured reason"
[ "$(grep -c 'guarantee HOLDS' <<<"$out")" = 2 ] \
  || fail "not every admitted per-app guarantee was validated"

echo "== mamps dse --apps (use-case sweep)"
out=$("$BIN" dse 3 --apps "$APP,$APP2" --jobs 2 --binders greedy,spiral)
echo "$out"
grep -q "2/2" <<<"$out" || fail "use-case sweep found no config admitting both apps"
grep -q "pipeline" <<<"$out" || fail "use-case sweep lost the pipeline app"
grep -q "spiral" <<<"$out" || fail "use-case sweep lost the spiral strategy"

echo "== mamps map-multi --gantt (per-application rows)"
out=$("$BIN" map-multi "$APP" "$APP2" "$ARCH" --iters 40 --gantt 72)
grep -q "gantt of interference group" <<<"$out" || fail "map-multi printed no gantt"
grep -qE '\[mjpeg\]' <<<"$out" || fail "gantt rows are not attributed to mjpeg"
grep -qE '\[pipeline\]' <<<"$out" || fail "gantt rows are not attributed to pipeline"

echo "== sharded dse (mamps dse --shard + dse-merge vs unsharded)"
MAMPS_BIN="$BIN" scripts/shard_dse.sh || fail "sharded dse diverged from the unsharded report"

echo "== simulator equivalence (event vs lockstep, byte-for-byte)"
MAMPS_BIN="$BIN" scripts/sim_equiv.sh || fail "simulator engines diverged"

echo "== incremental equivalence (pass cache: remap + delta sweeps, byte-for-byte)"
MAMPS_BIN="$BIN" scripts/incremental_equiv.sh || fail "incremental re-mapping diverged"

echo "== DSE service fault tolerance (dse-serve/dse-work/dse-submit, byte-for-byte)"
MAMPS_BIN="$BIN" scripts/serve_fault.sh --quick || fail "DSE service diverged or lost work"

echo "== mamps gen (golden corpus regenerates byte-identically)"
GOLD=examples/generated
"$BIN" gen --out "$tmp/generated" --seed 50 --count 8 --actors 6
diff -r "$GOLD" "$tmp/generated" \
  || fail "regenerated corpus differs from the checked-in $GOLD (seed 50 drifted)"

echo "== golden corpus (analyze + map + simulate every manifest entry)"
while read -r app_kv arch_kv rest; do
  app="$GOLD/${app_kv#app=}"
  garch="$GOLD/${arch_kv#arch=}"
  out=$("$BIN" analyze "$app") || fail "analyze $app failed"
  grep -q "consistent" <<<"$out" || fail "$app is not consistent"
  "$BIN" map "$app" "$garch" >/dev/null || fail "map $app failed"
  out=$("$BIN" simulate "$app" "$garch" 40) || fail "simulate $app failed"
  grep -q "HOLDS" <<<"$out" || fail "$app: guarantee violated in simulation"
done < "$GOLD/manifest.txt"

echo "smoke: OK"
