#!/bin/sh
# Builds the benchmark and elink-serve inside the checkout, then runs one
# workload. Run it from the repository root:
#
#   sh bench/run.sh -workload tao-stream -seed 1 -seconds 12 -trace 0
#
# Everything it writes (build cache, binaries, server data, traces) goes
# under .bench_build/, and nothing is fetched from the network.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/elink-serve ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of the elink repository" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/elink-serve" ./cmd/elink-serve
(cd bench && go build -o "$out/elink-bench" .)
exec "$out/elink-bench" -work "$out" -serve "$out/elink-serve" "$@"
