#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   sh perfbench/run.sh --workload paper-quick --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  The Go build cache, the binary and
# the benchmark's scratch files stay under .bench_build/.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
