#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload experiments --seed 1 --seconds 25 --trace 0
#
# The build, the Go build cache and traced runs' span dumps stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomod" GOTMPDIR="${build}/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "${root}/perfbench" && go build -o "${build}/bin/perfbench" .)
exec "${build}/bin/perfbench" --out "${build}/spans" "$@"
