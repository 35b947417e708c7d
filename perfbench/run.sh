#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload fig12-ndp --seed 1 --seconds 32 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# traced spans and CPU profiles) stays under .bench_build/ in the
# current directory. The last line of output is the JSON result; build
# output goes to standard error.
set -euo pipefail

build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
