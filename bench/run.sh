#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload ff-resnet --seed 1 --seconds 14 --trace 0
#
# Everything the build leaves behind — the binary, Go's build cache — stays
# in .bench_build/ under the repository root, so a run reads and writes
# nothing outside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
