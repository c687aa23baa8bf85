#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (build cache included, so nothing
# is written outside the checkout) and runs it with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ -f "$root/go.mod" ] || { echo "benchmark: $root holds no sphinx module to measure" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/sphinx-benchmark" .
cd "$root"
exec "$build/sphinx-benchmark" "$@"
