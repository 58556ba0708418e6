#!/usr/bin/env bash
# Builds kcoverd and the benchmark driver from this checkout into
# .bench_build/, then runs the driver with the given arguments:
#
#   bash kcbench/run.sh --workload ingest-saturate --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (Go caches, binaries, daemon data
# directories, traces) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/kcoverd" ./cmd/kcoverd) >&2
(cd "$here" && go build -o "$out/kcbench" .) >&2
exec "$out/kcbench" -daemon "$out/kcoverd" -work "$out" "$@"
