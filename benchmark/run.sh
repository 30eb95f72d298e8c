#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload durable_tcp --seed 42 --seconds 24 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, traces under benchmark/out/.
set -euo pipefail
if [ ! -f benchmark/go.mod ]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go build -C benchmark -o "$build/sharper-benchmark" .
exec "$build/sharper-benchmark" "$@"
