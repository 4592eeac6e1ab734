#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary and Go build cache under
# .bench_build/, nothing outside) and runs it with the given flags.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
