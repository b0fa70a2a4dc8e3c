#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it
# with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload backfill --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and scratch data stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
