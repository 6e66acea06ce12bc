#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload live-train --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, durable-store scratch
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$build/perfbench" --commit "$commit" --scratch "$build/tmp" "$@"
