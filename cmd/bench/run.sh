#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash cmd/bench/run.sh --workload build --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory: the Go build cache, temporary files, the binaries.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/bench/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod and cmd/bench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

(cd cmd/bench && go build -o "$out/bin/bench" .)
go build -o "$out/bin/" ./cmd/predserve ./cmd/predrouter ./cmd/simworker
exec "$out/bin/bench" -bin "$out/bin" "$@"
