#!/usr/bin/env bash
# Entry point of the repository benchmark (see bench/README.md). Run it from
# the repository root:
#
#   bash bench/run.sh --workload paper-solve --seed 1 --seconds 20 --trace 0
#
# It builds the harness and cmd/wsnlocd from source, then runs one workload.
# Everything the build and the run leave behind stays under .bench_build/.
set -euo pipefail

out=$PWD/.bench_build
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"

go build -C bench -o "$out/wsnloc-bench" .
go build -o "$out/wsnlocd" ./cmd/wsnlocd
exec "$out/wsnloc-bench" -wsnlocd "$out/wsnlocd" -work "$out/tmp" "$@"
