#!/usr/bin/env bash
# Builds mecsim, mecd and the benchmark runner from the source tree, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash benchmark/run.sh --workload online-churn --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and generated inputs stay under
# .bench_build in the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mecsim" || ! -d "$root/cmd/mecd" ]]; then
	echo "benchmark: run from the repository root (go.mod, cmd/mecsim and cmd/mecd not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/" ./cmd/mecsim ./cmd/mecd
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -build "$build" -references "$here/reference" "$@"
