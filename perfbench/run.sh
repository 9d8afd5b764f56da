#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload steady-k4 --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare runs-A runs-B
#
# Run it from the root of the checkout. The build cache, the binary and
# the run's scratch files all stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

# Keep the go command's caches, temporary files and per-user state
# (telemetry counters under the user config directory) in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
