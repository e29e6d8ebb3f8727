#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments.
# Go's build cache is kept there too, so nothing is written elsewhere.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/e2e" ./e2e
exec "$root/.bench_build/e2e" "$@"
