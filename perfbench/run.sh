#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs one
# workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload audit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off CGO_ENABLED=0

commit=none
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec env PERFBENCH_COMMIT="$commit" "$out/perfbench" "$@"
