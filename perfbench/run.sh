#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# build artefact and cache stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload offload-pcie --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -spans-dir "$build" "$@"
