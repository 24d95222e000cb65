#!/usr/bin/env bash
# Builds topoestd and the benchmark from source, then runs one benchmark
# workload. Run from the repository root:
#
#   bash topobench/run.sh --workload star-binary-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, daemon logs, and
# the spans of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOENV=off GOWORK=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/topoestd" ]; then
  echo "topobench: run from the repository root (no go.mod or cmd/topoestd here)" >&2
  exit 1
fi
go build -o "$build/bin/topoestd" ./cmd/topoestd >&2
(cd "$root/topobench" && go build -o "$build/bin/topobench" .) >&2
exec "$build/bin/topobench" --daemon "$build/bin/topoestd" "$@"
