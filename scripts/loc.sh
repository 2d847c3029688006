#!/usr/bin/env bash
# Prints the source line count that ROADMAP item 4 and the simplicity
# changes quote: every line of every Rust file under crates/*/src and
# src/, inline unit tests included (vendor/, tests/, benches and examples
# excluded). It reports the figure and has no threshold, so it never
# fails a CI job.
#
# Usage: scripts/loc.sh
cd "$(dirname "$0")/.." || exit 0
find crates/*/src src -name '*.rs' | xargs cat | wc -l
exit 0
