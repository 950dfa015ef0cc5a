#!/usr/bin/env bash
# The benchmark's entry point for the driver: build ./bench from source into
# the checkout's own build directory, then run it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes (build cache, temporaries) is kept inside
# the checkout too. In a directory without the module's sources the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
