#!/usr/bin/env bash
# Builds the perfbench binary and the experiments CLI from the sources
# of the checkout it is run from, then runs perfbench with the given
# arguments:
#
#   bash perfbench/run.sh --workload covert --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build (or
# $CARGO_TARGET_DIR when set) in the checkout: the Go build cache, the
# binaries, per-run scratch files and the digests kept across runs.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config PPROF_TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

here=$(cd "$(dirname "$0")" && pwd)
(cd "$here" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/experiments" branchscope/cmd/experiments) >&2

cd "$root"
exec "$build/bin/perfbench" -cli "$build/bin/experiments" -build "$build" "$@"
