#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it there with the arguments given. Run from the
# repository root: bash benchmark/run.sh --workload relink-wide --trace 0
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build"
# Everything the go command writes stays inside the checkout.
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/propeller-benchmark" .)
exec "$build/propeller-benchmark" "$@"
