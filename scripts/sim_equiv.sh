#!/usr/bin/env bash
# Simulator-equivalence gate: the discrete-event kernel (--engine event)
# and the lockstep reference oracle (--engine lockstep) must produce
# byte-for-byte identical output — guarantee verdicts, trace text, and
# Gantt charts — over every checked-in example pair, single-app and
# multi-app, and over a generated 2x2 mesh and a 3-tile CA platform.
# Untraced rows reach the event kernel's multi-word bursts; traced rows
# move one word per operation. Run by CI's "Simulator equivalence" step
# and by smoke.sh:
#
#   cargo build --release && scripts/sim_equiv.sh
set -euo pipefail
cd "$(dirname "$0")/.."

APP=examples/data/mjpeg_small_app.xml
APP2=examples/data/pipeline_small_app.xml
APP3=examples/data/infeasible_app.xml
ARCH=examples/data/fsl_3tile_arch.xml
BIN=${MAMPS_BIN:-target/release/mamps}

fail() { echo "sim_equiv: FAIL: $*" >&2; exit 1; }

[ -x "$BIN" ] || fail "$BIN not built (run cargo build --release first)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Runs the same command under both engines and byte-diffs the output
# (stdout and stderr combined, so error verdicts are compared too).
check() {
  local label=$1; shift
  echo "== $label"
  "$BIN" "$@" --engine event >"$tmp/event.txt" 2>&1 || true
  "$BIN" "$@" --engine lockstep >"$tmp/lockstep.txt" 2>&1 || true
  diff -u "$tmp/event.txt" "$tmp/lockstep.txt" \
    || fail "$label: engines diverge (diff above)"
  [ -s "$tmp/event.txt" ] || fail "$label: produced no output"
}

check "simulate mjpeg (verdict + trace + gantt)" \
  simulate "$APP" "$ARCH" 50 --trace 40 --gantt 72
check "simulate pipeline (verdict + trace + gantt)" \
  simulate "$APP2" "$ARCH" 50 --trace 40 --gantt 72
check "map-multi 3-app union (verdicts + gantt)" \
  map-multi "$APP" "$APP2" "$APP3" "$ARCH" --iters 60 --gantt 72

# Trace-only runs: a long event log with no Gantt rendering, so every
# individual event's ordering is compared, not just the chart rollup.
check "simulate mjpeg (trace only, long)" \
  simulate "$APP" "$ARCH" 50 --trace 200
check "simulate pipeline (trace only, long)" \
  simulate "$APP2" "$ARCH" 50 --trace 200

# Untraced runs: whole word bursts, compared through the verdicts.
check "simulate mjpeg (untraced)" simulate "$APP" "$ARCH" 50
check "simulate pipeline (untraced)" simulate "$APP2" "$ARCH" 50

# A 2x2 NoC mesh and a 3-tile CA platform (CA engines serialize).
"$BIN" gen --seed 7 --family chain --actors 4 --arch mesh:2x2 --count 1 \
  --out "$tmp/mesh" >/dev/null
MESH=$tmp/mesh/arch_mesh2x2.xml
CA=$tmp/ca_3tile_arch.xml
cat >"$CA" <<'XML'
<?xml version="1.0"?>
<architecture clockMhz="100" name="ca3">
  <tile caPerWord="1" caSetup="10" dmem="131072" imem="131072" kind="ca" name="tile0" processor="microblaze" serPerWord="12" serSetup="48"/>
  <tile caPerWord="1" caSetup="10" dmem="131072" imem="131072" kind="ca" name="tile1" processor="microblaze" serPerWord="12" serSetup="48"/>
  <tile caPerWord="1" caSetup="10" dmem="131072" imem="131072" kind="ca" name="tile2" processor="microblaze" serPerWord="12" serSetup="48"/>
  <interconnect fifoDepth="16" type="fsl"/>
</architecture>
XML
for arch in "$MESH" "$CA"; do
  name=$(basename "$arch" .xml)
  check "simulate mjpeg on $name (untraced)" simulate "$APP" "$arch" 50
  check "map-multi mjpeg + pipeline on $name" \
    map-multi "$APP" "$APP2" "$arch" --iters 300
done

echo "sim_equiv: OK"
