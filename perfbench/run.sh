#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload netflow-router --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, durable data directories and
# span files.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home"
export GOPATH="$build/gopath"

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
