#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
