#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# sources of this checkout and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload warm-tpch --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's own counters) stays under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 GOFLAGS=
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
