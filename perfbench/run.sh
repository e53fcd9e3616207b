#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload poisson3d-cg --seed 1 --seconds 30 --trace 0
#
# Build output goes to .bench_build/ (Go build cache included), so the
# run reads and writes nothing outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
