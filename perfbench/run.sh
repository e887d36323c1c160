#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload optimize-panel --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache and the compiler's temporary files stay in .bench_build/ under
# the current directory. The last line of standard output is the JSON
# result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
