#!/usr/bin/env bash
# Builds the benchmark and the vfocusd daemon from source and runs the
# benchmark; every argument is passed through. Run it from the repository
# root:
#
#   bash bench/run.sh --seed 1                      # all workloads, full protocol
#   bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/vfocusd || ! -f bench/go.mod ]]; then
    echo "bench/run.sh: run from the repository root (go.mod, cmd/vfocusd and bench/go.mod are required)" >&2
    exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(
    cd bench
    go build -o "$out/bin/bench" .
    go build -o "$out/bin/vfocusd" repro/cmd/vfocusd
)
exec "$out/bin/bench" -vfocusd "$out/bin/vfocusd" -workdir "$out" "$@"
