#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it. All
# build output, the Go build cache included, stays under .bench_build
# in the checkout; the harness builds dcdbnode and collectagent itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/bin/dcdb-benchmark" .)
cd "$root"
exec "$build/bin/dcdb-benchmark" "$@"
