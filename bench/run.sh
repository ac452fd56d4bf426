#!/usr/bin/env bash
# Builds nsbench from this checkout and runs it; nsbench builds
# ./cmd/copshttp and the reference server bench/refserver itself.
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache and temporary files included), and nothing is
# fetched: the benchmark and the servers use the standard library only.
#
#   bash bench/run.sh --workload hot_get --seed 1 --seconds 21 --trace 0
#
# Arguments go to nsbench unchanged; see bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/nsbench" ./nsbench)
exec "$out/nsbench" -repo "$root" -out "$out" "$@"
