#!/usr/bin/env bash
# Builds ttkvd and the benchmark into .bench_build/ at the checkout root
# (outside every clock) and runs the benchmark with the given flags.
# Everything the Go toolchain writes stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root" && go build -o "$out/ttkvd" ./cmd/ttkvd)
(cd "$root/bench" && go build -o "$out/ocasta-bench" .)
cd "$root"
exec "$out/ocasta-bench" "$@"
