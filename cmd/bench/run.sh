#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of
# the checkout and runs it there. Every file the Go toolchain or the
# benchmark writes stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/asymshare-bench" .)
cd "$root"
exec "$build/asymshare-bench" "$@"
