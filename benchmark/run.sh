#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark command from the
# checkout's sources and runs it with the arguments given, from the root of
# the checkout. Everything the Go toolchain writes (build cache, temporary
# files, the binary) stays inside the checkout, under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

# A cheap no-op when nothing changed; the first build in a checkout
# compiles the whole module.
go build -o "$build/xdx-benchmark" ./benchmark
exec "$build/xdx-benchmark" "$@"
