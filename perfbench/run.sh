#!/usr/bin/env bash
# Builds the collector (cmd/sentinel) and the benchmark from the checkout in
# the current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload binary-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/sentinel" ./cmd/sentinel >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -sentinel "$out/sentinel" -workdir "$out" "$@"
