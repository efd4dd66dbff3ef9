#!/usr/bin/env bash
# Runs two full sets (end-to-end and traced) on the same build and fails
# unless they agree: every end-to-end row `ok` within its bound — an
# `unresolved` row (spread wider than the bound) is reported and fails too,
# it is never hidden — and every count-type per-layer metric identical.
# Each set takes eight timed reps: the first two reps of `serve_fresh` can
# ride on the machine state the previous workload left (README, observation
# 13), and with eight samples two outliers stay outside the quartiles.
# Takes about 20 minutes. Extra arguments go to `chefbench run` (e.g.
# `--smoke`, `--reps 3`).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path chefbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-chefbench/target}/release/chefbench"
out=chefbench/out/agreement
mkdir -p "$out"

smoke=()
for arg in "$@"; do
  if [ "$arg" = "--smoke" ]; then smoke=(--smoke); fi
done

for set in a b; do
  "$bin" run --reps 8 "$@" --out "$out/run-$set.json" > "$out/run-$set.txt"
  "$bin" trace "${smoke[@]}" --out "$out/trace-$set.json" > "$out/trace-$set.txt"
done

status=0
"$bin" compare "$out/run-a.json" "$out/run-b.json" || status=$?
# Only verdict-carrying rows of the traced sets are worth the screen.
"$bin" compare "$out/trace-a.json" "$out/trace-b.json" | grep -v ' -$' || status=$?
if [ "$status" -ne 0 ]; then
  echo "check-agreement: the two sets DISAGREE (see rows above)" >&2
  exit 1
fi
echo "check-agreement: the two sets agree"
