#!/usr/bin/env bash
# Builds fta and the benchmark from the checkout in the current directory,
# then runs one workload:
#
#   bash servebench/run.sh --workload solve-w200 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -o "$out/fta" ./cmd/fta
(cd "$here" && go build -o "$out/servebench" .)
SERVEBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown) \
	exec "$out/servebench" -fta "$out/fta" -root "$root" "$@"
