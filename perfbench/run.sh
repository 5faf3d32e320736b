#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload http-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory (the Go build cache
# too), so the benchmark touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0 GOWORK=off
export GOPROXY=off GOSUMDB=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (is this a full source checkout?)" >&2
	exit 2
fi
exec "$out/perfbench" -out "$out" "$@"
