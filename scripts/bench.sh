#!/usr/bin/env bash
# Runs the scheduler-critical benchmarks and records them in
# BENCH_sched.json via cmd/benchdiff, so every PR leaves a perf
# trajectory behind.
#
# Usage:
#   scripts/bench.sh LABEL [BASELINE_LABEL]
#
# LABEL names this run's entry in BENCH_sched.json (re-running with the
# same label updates it in place), together with a record of the machine.
# With BASELINE_LABEL the run is also diffed against that recorded entry
# and the script fails on a >20% ns/op regression, or when the baseline
# was recorded on a different machine.
set -euo pipefail
cd "$(dirname "$0")/.."

label=${1:?usage: scripts/bench.sh LABEL [BASELINE_LABEL]}
base=${2:-}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
    -bench 'BenchmarkFullRun|BenchmarkAblationEnvelopeMaxBandwidthRepl|BenchmarkAblationDynamicMaxBandwidthRepl|BenchmarkAblationTwoDrives|BenchmarkSimulationDefault|BenchmarkFarmRun' \
    -benchmem -benchtime 1s . | tee "$tmp"
go test -run '^$' \
    -bench 'BenchmarkUpperEnvelope|BenchmarkEnvelopeReschedule|BenchmarkEnvelopeOnArrival' \
    -benchmem -benchtime 1s ./internal/core | tee -a "$tmp"
go test -run '^$' \
    -bench 'BenchmarkReschedule' \
    -benchmem -benchtime 1s ./internal/sched | tee -a "$tmp"
go test -run '^$' \
    -bench 'BenchmarkFaultRepairIdle|BenchmarkScrubIdle' \
    -benchmem -benchtime 1s ./internal/sim | tee -a "$tmp"

# Tracked pair for the experiment engine: BenchmarkFullRun above measures
# one warm-context run; this measures the real `figures -full` wall time
# (every figure at the paper's 10M-second horizon, all cores). Recorded as
# a synthetic one-iteration benchmark line so benchdiff tracks it like any
# other. Skip with FIGURES_FULL=0 when iterating on micro-benchmarks.
if [ "${FIGURES_FULL:-1}" != "0" ]; then
    go build -o "$tmp.figures" ./cmd/figures
    start=$(date +%s%N)
    "$tmp.figures" -full > /dev/null
    elapsed=$(( $(date +%s%N) - start ))
    rm -f "$tmp.figures"
    echo "BenchmarkFiguresFullWall 1 $elapsed ns/op" | tee -a "$tmp"
fi

if [ -n "$base" ]; then
    go run ./cmd/benchdiff -in "$tmp" -json BENCH_sched.json -label "$label" -compare "$base"
else
    go run ./cmd/benchdiff -in "$tmp" -json BENCH_sched.json -label "$label"
fi
