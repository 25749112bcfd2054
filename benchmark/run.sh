#!/usr/bin/env bash
# Builds the benchmark driver and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload paper-all --seed 1995 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, the toolchain's config and telemetry files, binaries,
# scratch cache directories) stays under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ncdrf || ! -f benchmark/go.mod ]]; then
	echo "benchmark/run.sh: run from the root of an ncdrf checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C benchmark -o "$out/ncdrf-bench" .
exec "$out/ncdrf-bench" "$@"
