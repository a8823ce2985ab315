#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout; every byte it writes (build cache, binary, temp files, the
# daemon's disk store and DDG spill files) stays under .bench_build there.
#
#   bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
