#!/usr/bin/env bash
# Builds and runs the perf-trajectory benchmarks, writing JSON baselines to
# the repo root:
#   BENCH_micro.json    — substrate hot paths + end-to-end matching
#                         (1/2/4 threads)
#   BENCH_scaling.json  — Table-2 RMAT scaling shape
#   BENCH_outofcore.json — memory-budgeted matching under 4x and 16x score
#                         state pressure vs the unbudgeted baseline; the 4x
#                         series must stay under 2x the baseline real_time
#                         (tiers_spilled / spilled_mb confirm the spill
#                         path ran)
#
# Usage: tools/run_bench.sh [extra google-benchmark flags...]
# The build directory defaults to <repo>/build-bench; override with
# BUILD_DIR=... Compare JSONs across PRs to track the perf trajectory.
#
# Baselines are only written from Release builds: the script fails if an
# emitted context block reports a debug build. Each JSON also embeds the
# git SHA it was produced from (context key `reconcile_git_sha`; the
# configure step runs fresh here, so the SHA matches HEAD).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-bench}"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DRECONCILE_BUILD_BENCHMARKS=ON \
  -DRECONCILE_BUILD_TESTS=OFF \
  -DRECONCILE_BUILD_TOOLS=OFF
cmake --build "$BUILD" -j "$(nproc)" --target bench_micro bench_table2_scaling bench_outofcore

# Refuse to bless a baseline whose context says the measured code was not a
# Release build. Output goes to a temp file first so a failed check never
# clobbers the previous blessed baseline.
check_release() {
  local json="$1"
  if ! grep -q '"library_build_type": "release"' "$json"; then
    echo "error: $json does not report \"library_build_type\": \"release\"" >&2
    exit 1
  fi
  if grep -q '"library_build_type": "debug"' "$json" ||
     grep -q '"reconcile_build_type": "debug"' "$json"; then
    echo "error: $json reports a debug build; baselines must be Release" >&2
    exit 1
  fi
}

TMP_MICRO="$(mktemp)"
TMP_SCALING="$(mktemp)"
TMP_OUTOFCORE="$(mktemp)"
trap 'rm -f "$TMP_MICRO" "$TMP_SCALING" "$TMP_OUTOFCORE"' EXIT

"$BUILD/bench_micro" --benchmark_format=json "$@" > "$TMP_MICRO"
check_release "$TMP_MICRO"
"$BUILD/bench_table2_scaling" --benchmark_format=json "$@" > "$TMP_SCALING"
check_release "$TMP_SCALING"
"$BUILD/bench_outofcore" --benchmark_format=json "$@" > "$TMP_OUTOFCORE"
check_release "$TMP_OUTOFCORE"

mv "$TMP_MICRO" "$ROOT/BENCH_micro.json"
mv "$TMP_SCALING" "$ROOT/BENCH_scaling.json"
mv "$TMP_OUTOFCORE" "$ROOT/BENCH_outofcore.json"

echo "wrote $ROOT/BENCH_micro.json, $ROOT/BENCH_scaling.json and" \
     "$ROOT/BENCH_outofcore.json"
