#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash benchmark/run.sh --workload cross-device --seed 1 --seconds 20 --trace 0
#
# Build caches and scratch files stay under .bench_build, and the toolchain is
# pinned to the local install with the module proxy off, so nothing is fetched.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath TMPDIR=$build/tmp \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/benchmark" build -o "$build/oasis-benchmark" .
exec "$build/oasis-benchmark" "$@"
