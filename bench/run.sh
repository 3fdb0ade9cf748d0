#!/usr/bin/env bash
# The one command: builds the benchmark from source and runs it.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json names)
#   bash bench/run.sh --seed N --out bench/out/result.json            every workload, both passes
#   bash bench/run.sh --compare a.json b.json                         judge b against a
#
# Everything it writes stays inside the checkout: the build and the Go
# build cache under .bench_build/, scratch files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -ldflags "-X main.commit=$commit" -o "$build/sdsbench" .)
cd "$root"
exec "$build/sdsbench" "$@"
