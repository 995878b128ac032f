#!/bin/sh
# Builds the end-to-end benchmark from source and runs it from the
# repository root. The build, the Go build cache, Go's own config and
# telemetry files and the benchmark's scratch files all stay under
# .bench_build/ in the checkout.
#
#   sh perf/run.sh                          all workloads, table on stdout
#   sh perf/run.sh -out set.json            ... and the result file
#   sh perf/run.sh --workload campaign --seed 0 --seconds 30 --trace 0
#   sh perf/run.sh compare A.json B.json    verdict per (workload, metric)
set -eu
root=$(pwd)
out="$root/.bench_build/perf"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perf" && go build -o "$out/perf" .)
exec "$out/perf" "$@"
