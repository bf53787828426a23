#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh -workload all -seed 1
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the repository root, and the toolchain never goes to
# the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C benchmark build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
