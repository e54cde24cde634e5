#!/usr/bin/env bash
# Runs all four workloads once at one seed, each in its own process with a
# 120-second wall-clock limit, so a stalled capture becomes a failed run
# instead of a hung pipeline. Before and after each workload it records
# host.calib_ms, the time of a fixed sha256 pass over 64 MiB, so host drift
# shows next to the numbers. Extra arguments go to every run:
#
#   bash benchmark/run.sh 1
#   bash benchmark/run.sh 1 --trace 1
#
# Exits non-zero if any run fails, times out or reports a failed check.
set -uo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
seed=${1:-1}
shift $(( $# > 0 ? 1 : 0 ))
bin="$root/.bench_build/keddah-benchmark"
bash benchmark/bench.sh --calib >/dev/null || exit 3 # builds $bin

status=0
for w in toolchain tcp-shuffle bulk-generate serve-stream; do
	before=$("$bin" --calib)
	out=$(timeout 120 "$bin" --workload "$w" --seed "$seed" "$@")
	code=$?
	after=$("$bin" --calib)
	echo "== $w seed=$seed exit=$code host.calib_ms before=${before##* } after=${after##* }"
	printf '%s\n' "$out"
	[ "$code" -eq 0 ] || status=1
done
exit $status
