#!/usr/bin/env bash
# Builds the ftperf benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash ftperf/run.sh --workload cold_solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, temporary files) stays under .bench_build/ in that
# root. Without the ftclust sources next to ftperf/ the build fails and
# the script exits non-zero before anything is measured.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/ftperf" && go build -o "$build/ftperf" .) >&2
exec "$build/ftperf" "$@"
