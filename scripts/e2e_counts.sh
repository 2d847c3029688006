#!/usr/bin/env bash
# Exact-count gate of the end-to-end benchmark: runs every workload named
# in BENCH_e2e_counts.json once at its seed, traced, and fails unless each
# listed count equals the checked-in value. These counts (design points,
# kernel analyses and states, cache bytes, pass replays, admissions,
# simulated firings and cycles) do not depend on timing, so any
# difference is a change in what the flow computes, not noise.
#
# Usage: scripts/e2e_counts.sh
#
# Needs jq. It only reads the benchmark's output; it never writes to
# e2e_bench/ or BENCHMARK.json (the traced runs leave their spans under
# .e2e_bench_work/, which is ignored).
set -euo pipefail
cd "$(dirname "$0")/.."

counts=BENCH_e2e_counts.json
seed=$(jq -r '.seed' "$counts")
status=0
for w in $(jq -r '.workloads | keys_unsorted[]' "$counts"); do
  last=$(cargo run --release --offline --quiet --manifest-path e2e_bench/Cargo.toml -- \
    --workload "$w" --seed "$seed" --seconds 1 --trace 1 | tail -n 1)
  # For every expected key, the observed value: the metric, or the sum of
  # the '+'-joined metrics (null when one is missing).
  diff=$(jq -c --arg w "$w" --slurpfile counts "$counts" '
    .metrics as $m
    | $counts[0].workloads[$w]
    | to_entries
    | map({key, want: .value,
           got: (.key | split("+") | map($m[.].value) | if any(. == null) then null else add end)})
    | map(select(.want != .got))' <<<"$last")
  if [ "$diff" = "[]" ]; then
    echo "e2e_counts: $w: all $(jq --arg w "$w" '.workloads[$w] | length' "$counts") counts match"
  else
    echo "e2e_counts: $w: counts differ from $counts: $diff" >&2
    status=1
  fi
done
exit "$status"
