#!/usr/bin/env bash
# Builds the SummitScale benchmark from the sources in this checkout and
# runs it. Run from the repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's scratch files all live
# under .bench_build, so nothing is read or written outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
