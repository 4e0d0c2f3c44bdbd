#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Every build artifact, the Go
# build cache included, stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload fig7 --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
