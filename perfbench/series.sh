#!/usr/bin/env bash
# Runs one workload once per seed and keeps each run's output, in the
# layout `run.sh compare` reads:
#
#   bash perfbench/series.sh [--trace 1] <out-dir> <workload> <seconds> <seed>...
#
# writes <out-dir>/<workload>/seed-<seed>.json. With --trace 1 the runs
# report the per-layer metrics, among them the wall-clock speed figures
# (bench.completed_per_s, bench.e2e_p50_ms). Run it from the root of the
# checkout; it stops at the first failed run.
set -euo pipefail

trace=0
if [ "${1:-}" = "--trace" ]; then
	trace=$2
	shift 2
fi
if [ $# -lt 4 ]; then
	echo "usage: $0 [--trace 1] <out-dir> <workload> <seconds> <seed>..." >&2
	exit 2
fi
out=$1 workload=$2 seconds=$3
shift 3
bench=$(dirname "${BASH_SOURCE[0]}")
mkdir -p "$out/$workload"
for seed in "$@"; do
	bash "$bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
		>"$out/$workload/seed-$seed.json"
done
