#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build, the Go caches and the trace
# files stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/dsmbench" .)
exec "$out/dsmbench" "$@"
