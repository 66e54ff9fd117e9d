#!/usr/bin/env bash
# Builds the benchmark program from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload figures-quick --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the binary)
# stays under .bench_build/ at the root of the checkout. The build needs the
# simulator sources one directory up (perfbench/go.mod replaces the syncron
# module with ../), so a copy holding only the benchmark files fails here,
# before printing a result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
