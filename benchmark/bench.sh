#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash benchmark/bench.sh --workload toolchain --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# run's scratch files stay under .bench_build/. Build output goes to
# stderr, so the last line of stdout is the run's JSON result. A checkout
# without the repository's Go sources fails the build and exits non-zero
# without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
# Fall back to where the official Go distribution installs itself.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

if ! (cd benchmark && go build -o "$build/keddah-benchmark" .) >&2; then
	echo "bench.sh: building the benchmark failed" >&2
	exit 3
fi
exec "$build/keddah-benchmark" "$@"
