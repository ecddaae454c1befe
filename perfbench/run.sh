#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-objects --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/, and no
# module is fetched: the benchmark builds against the repository's own bmx
# module and the standard library only.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
