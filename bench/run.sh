#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash bench/run.sh -workload raw-stream -seed 1 -seconds 10 -trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the
# toolchain's own state go under .bench_build/ in the current directory, so
# a run writes nowhere else.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
		GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local \
		go build -o "$out/drange-bench" .
)
exec "$out/drange-bench" "$@"
