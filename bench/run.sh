#!/usr/bin/env bash
# Benchmark contract entry point: build the benchmark inside the checkout
# (module cache and build cache included, so nothing outside it is written)
# and run it from the checkout's root with the driver's arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/out"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
