#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it there; every file it writes (Go build cache, the toolchain's
# own counters under XDG_CONFIG_HOME, data directory, trace output) stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" GOPROXY=off
(cd "$here" && go build -o "$build/xivm-benchmark" .)
exec "$build/xivm-benchmark" -scratch "$build" "$@"
