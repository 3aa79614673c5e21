#!/usr/bin/env bash
# Builds the serve-plane benchmark harness from source and runs it.
#
#   bash servebench/run.sh --p99-limit-ms 50 --workload read_wide --seed 1 --seconds 48 --trace 0
#
# Run from the repository root. The build cache, the binary and the
# trace files live under .bench_build/ in the current directory, so the
# benchmark reads and writes nothing outside the checkout. The harness
# module replaces rwskit with the enclosing repository; without it the
# build fails and the script exits non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/servebench" && go build -trimpath -buildvcs=false -o "$out/servebench" .)
exec "$out/servebench" -out "$out" "$@"
