#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Every build artefact (compiler cache, temporary files, the binary) and
# every file the run writes stay under .bench_build/ in the current
# directory; nothing is fetched from the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
