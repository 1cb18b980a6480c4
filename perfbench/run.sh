#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload flow-media --seed 1 --seconds 10 --trace 0
#
# Every file the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the
# spools and stores of the in-process daemons.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/main.go not found)" >&2
	exit 2
fi
gobin=$(command -v go || true)
if [[ -z "$gobin" && -n "${GOROOT:-}" && -x "$GOROOT/bin/go" ]]; then
	gobin="$GOROOT/bin/go"
fi
if [[ -z "$gobin" ]]; then
	echo "perfbench: no go toolchain on PATH" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

"$gobin" build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" --workdir "$build/work" "$@"
