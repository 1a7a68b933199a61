#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   sh perfbench/run.sh --workload allpairs-2d --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, temporary files,
# the binary and the traced run's spans all stay under .bench_build/.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
if [ -z "${PERFBENCH_REV:-}" ]; then
	PERFBENCH_REV=unknown
	if [ -d "$root/.git" ]; then
		PERFBENCH_REV=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
	fi
	export PERFBENCH_REV
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
