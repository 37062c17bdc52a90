#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh compare <parent-dir> <change-dir>
#
# Every build product and temporary file stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, temporary cache directories and
# the span files of traced runs.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
