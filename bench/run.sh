#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the driver's arguments. The Go
# build cache lives under .bench_build/ so nothing is written outside
# the checkout; an unchanged tree relinks nothing on the second call.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
mkdir -p "$root/.bench_build"
go build -o "$root/.bench_build/slackbench" ./bench
exec "$root/.bench_build/slackbench" "$@"
