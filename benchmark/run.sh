#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload figure6 --seed 1 --seconds 15 --trace 0
#
# The binary and Go's build cache live in .bench_build/ of the checkout, so
# nothing is read from or written to the rest of the machine, and the Go
# compiler's time never lands in a measurement. All arguments go to r2cperf.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd benchmark && go build -o "$out/r2cperf" .)
exec "$out/r2cperf" "$@"
