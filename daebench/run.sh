#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash daebench/run.sh -workload single-cold -seed 1 -seconds 20
#
# The build and the run write only under .bench_build in the current
# directory (Go's build cache included), and the build never fetches
# anything: the benchmark module needs nothing outside this repository.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/daebench" .
exec "$build/daebench" -outdir "$build" "$@"
