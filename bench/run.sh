#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source with
# every build output kept inside the checkout, then hands over to it. The
# harness builds cmd/mbdserver itself so it can time that build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/mbdbench" .
exec "$build/mbdbench" -root "$root" "$@"
