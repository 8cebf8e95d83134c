#!/usr/bin/env bash
# Builds cmd/uncertaind and the benchmark from the checkout's sources, then
# runs the benchmark with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload read_hot --seed 1 --seconds 15 --trace 0
#   bash servebench/run.sh --short
#
# Everything built or written stays under .bench_build (or $CARGO_TARGET_DIR
# when set): the Go build cache included, so the first run compiles the
# standard library and later runs reuse it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/uncertaind" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the repository root (go.mod, cmd/uncertaind and servebench/ must be present)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/uncertaind" ./cmd/uncertaind >&2
(cd servebench && go build -o "$build/bin/servebench" .) >&2

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$build/bin/servebench" --server "$build/bin/uncertaind" --workdir "$build" --commit "$commit" "$@"
