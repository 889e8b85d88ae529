#!/usr/bin/env bash
# Builds cmd/p2bnode and the perfbench load generator from source and runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload durable-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, node data
# directories and the spans of traced runs. The last line of standard
# output is the result JSON; build output and the human-readable report go
# to standard error.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/p2bnode" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/p2bnode and perfbench/ must exist)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bin/p2bnode" ./cmd/p2bnode >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -node "$build/bin/p2bnode" -work "$build/work" \
	-trace-dir "$build/trace" "$@"
