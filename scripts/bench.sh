#!/usr/bin/env bash
# bench.sh — run the fabric, simclock and traffic hot-path benchmarks and
# the default model training, and record the results as a machine-readable
# baseline.
#
# Usage:
#   scripts/bench.sh           # full run (benchtime 2s), writes BENCH_fabric.json
#   scripts/bench.sh smoke     # single-iteration smoke run for CI: proves the
#                              # benchmarks still compile and run, writes nothing
#
# Both modes fail (exit 3) when a benchmark recorded in the committed
# BENCH_fabric.json does not appear in the run: a renamed or deleted
# benchmark must surface as an explicit failure, never as a silently
# shrunk baseline.
#
# Environment:
#   BENCHTIME   overrides the -benchtime for the full run (default 2s)
#   BENCHCOUNT  overrides the repetitions per benchmark (default 3)
#   OUT         overrides the output path (default BENCH_fabric.json)
#
# The JSON maps each benchmark to its ns/op, B/op, and allocs/op, so a
# later run can be diffed against the committed baseline. Each benchmark
# runs BENCHCOUNT times and the fastest repetition is recorded: on shared
# machines the minimum is the least-noisy estimate, and recording a single
# pass makes late-suite benchmarks look slower than early ones purely from
# scheduler drift. The numbers are machine-dependent: compare runs from
# the same machine only.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkPlacement|BenchmarkGreedyPlacement|BenchmarkPlace|BenchmarkPlaceWithTopology|BenchmarkScan|BenchmarkPLBScan|BenchmarkReportLoad|BenchmarkNamingServiceFloat|BenchmarkSimulatedDay|BenchmarkSimulatedDayWithFaults|BenchmarkSimulatedDayJournaled|BenchmarkSimulatedDayWithTraffic|BenchmarkSimulatedDayWithTrafficTraced|BenchmarkSimulatedDayTrafficHedged|BenchmarkSimulatedDayNoTraffic|BenchmarkClockSchedule|BenchmarkClockCancel|BenchmarkTrainDefaultModels|BenchmarkDecodeDefaultModels)$'
PKGS='./internal/fabric/ ./internal/simclock/ ./internal/traffic/ ./internal/core/'
BENCHTIME="${BENCHTIME:-2s}"
BENCHCOUNT="${BENCHCOUNT:-3}"
OUT="${OUT:-BENCH_fabric.json}"

# check_complete <raw-output>: every benchmark named in the committed
# baseline must have produced at least one result line in this run.
check_complete() {
    local raw="$1" baseline="BENCH_fabric.json" name missing=0
    [[ -f "$baseline" ]] || return 0
    while IFS= read -r name; do
        if ! grep -Eq "^${name}(-[0-9]+)?[[:space:]]" "$raw"; then
            echo "bench: $name is in $baseline but missing from this run" >&2
            missing=1
        fi
    done < <(grep -o '"Benchmark[^"]*"' "$baseline" | tr -d '"')
    if [[ "$missing" -ne 0 ]]; then
        echo "bench: FAIL — a baselined benchmark disappeared; rename the baseline entry deliberately or restore the benchmark" >&2
        exit 3
    fi
}

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

if [[ "${1:-}" == "smoke" ]]; then
    # Smoke mode: one iteration per benchmark, no baseline written, no
    # timing gate — this guards against benchmark bit-rot (compile/run
    # failures and silent disappearance), not against slowdowns.
    go test $PKGS -run '^$' -bench "$BENCHES" -benchtime 1x -benchmem | tee "$raw"
    check_complete "$raw"
    exit 0
fi

go test $PKGS -run '^$' -bench "$BENCHES" -benchtime "$BENCHTIME" -count "$BENCHCOUNT" -benchmem | tee "$raw"
check_complete "$raw"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (!(name in nsv)) names[++n] = name
    # Keep the fastest repetition (and its memory numbers).
    if (!(name in nsv) || ns + 0 < nsv[name] + 0) {
        nsv[name] = ns; bv[name] = bytes; av[name] = allocs
    }
}
END {
    print "{"
    for (i = 1; i <= n; i++) {
        name = names[i]
        sep = (i < n) ? "," : ""
        printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, nsv[name], bv[name], av[name], sep
    }
    print "}"
}
' "$raw" > "$OUT"

echo "wrote $OUT"
