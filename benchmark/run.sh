#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes (Go build cache included) goes
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's own files (build cache, module cache, telemetry
# counters, user configuration) inside the checkout as well.
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -C benchmark -o "$build/proust-benchmark" .
exec "$build/proust-benchmark" "$@"
