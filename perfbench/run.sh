#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload write-skew --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, Go's telemetry
# counters, the shermand binary, span files) stays under .bench_build in the
# repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d cmd/shermand ]]; then
	echo "perfbench: run from the repository root (the sherman module sources are needed)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local

go -C perfbench build -o "$build/perfbench" .

# The benchmark runs in a process group of its own (job control), so that
# shermand processes a crashed run leaves behind can be stopped.
#
# GOMAXPROCS=1 holds for the client and, through the environment, for both
# shermand processes: three processes share the host's two cores, and with
# two Ps each the Go schedulers hand work across cores and spin for it,
# which costs the client a third to three quarters more CPU per op, the
# most when the host itself is slow (README.md, "Load").
set -m
GOMAXPROCS=1 "$build/perfbench" "$@" &
pid=$!
trap 'kill -TERM -- "-$pid" 2>/dev/null' INT TERM
status=0
wait "$pid" || status=$?
kill -KILL -- "-$pid" 2>/dev/null || true
for _ in $(seq 50); do
	kill -0 -- "-$pid" 2>/dev/null || break
	sleep 0.1
done
exit "$status"
