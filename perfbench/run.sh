#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives (aongate, aonback) from
# the checkout's source into .bench_build/, then runs it with the given
# arguments, e.g.:
#
#   bash perfbench/run.sh --workload fr-min --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build cache, temporaries and outputs stay
# inside .bench_build/; compiling does not count towards any metric.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/aongate" ./cmd/aongate
go build -o "$out/aonback" ./cmd/aonback
exec "$out/perfbench" -bin "$out" "$@"
