#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash perfbench/run.sh --workload tweets-q2 --seed 1 --seconds 25 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory; build messages go to standard error, so the last line
# of standard output is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
