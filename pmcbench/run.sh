#!/usr/bin/env bash
# Builds the pmcbench binary and pmcpowerd from the source tree, then
# runs one benchmark workload. From the root of a pmcpower checkout:
#
#   bash pmcbench/run.sh --workload calibrate|model-search|serve --seed 1 --seconds 20 --trace 0
#
# The binaries, the Go build cache, temporary files, traces and the
# daemon's scratch directory all stay under .bench_build/. Compiling is
# not part of any measured time: pmcbench starts after both builds.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pmcpowerd || ! -f pmcbench/go.mod ]]; then
	echo "pmcbench: run from the root of a pmcpower checkout (go.mod, cmd/pmcpowerd and pmcbench/go.mod are needed)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
out="$build/pmcbench"
mkdir -p "$out" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C pmcbench build -o "$out/pmcbench" .
go build -o "$out/pmcpowerd" ./cmd/pmcpowerd
exec "$out/pmcbench" -daemon "$out/pmcpowerd" -out "$out" "$@"
