#!/usr/bin/env bash
# Builds the benchmark and the pserve daemon from this checkout's source
# into .bench_build/ at the checkout root, then runs one workload:
#
#   bash benchmark/run.sh --workload suite-dag --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache included) stays under
# .bench_build/. Without the repository's module beside it the build fails
# and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
cd "$root/benchmark"
go build -o "$build/bench" .
go build -o "$build/pserve" powermap/cmd/pserve
cd "$root"
exec "$build/bench" --pserve "$build/pserve" --golden "$root/benchmark/testdata/golden.json" \
	--out "$build" "$@"
