#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the
# checkout it sits in and runs it there; the benchmark then builds
# cmd/dnslb-server itself. Everything built, cached or written lands
# under the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
# The go command keeps its env file and its telemetry counters in the
# user's configuration directory, and builds in the temporary directory:
# keep those in the checkout too.
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
