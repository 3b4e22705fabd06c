#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json names this script as the command. Everything the build
# writes stays inside the checkout: the Go build cache and temporary files
# go to .bench_build/ (the first run in a checkout therefore compiles the
# standard library too), and the benchmark itself writes to benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
