#!/usr/bin/env bash
# Builds ranad and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash ranadbench/run.sh --workload hit-zoo --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rana-serve || ! -d internal/sched/testdata/golden ]]; then
	echo "ranadbench: run from the root of a rana checkout (cmd/rana-serve not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
# Keep the Go build cache, module cache and tool state inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/ranad" ./cmd/rana-serve
(cd ranadbench && go build -o "$out/ranadbench" .)
exec "$out/ranadbench" -ranad "$out/ranad" -root . -work "$out" "$@"
