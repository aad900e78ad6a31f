#!/usr/bin/env bash
# Builds the lvf2 end-to-end benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products and scratch files stay in
# .bench_build/ under the current directory; CARGO_TARGET_DIR is honoured
# as the build directory when set, so every write stays in the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

# Every cache, config and temporary file the go command and the
# benchmark write goes under $build.
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export TMPDIR=$build/tmp
export GOTMPDIR=$build/tmp
mkdir -p "$TMPDIR"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" -benchmark "$root/BENCHMARK.json" -workdir "$build/work" "$@"
