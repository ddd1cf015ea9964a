#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload proposed-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the gateway's durable store. Without the repository's Go module next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"
# XDG_CONFIG_HOME keeps the go command's user configuration (and any
# telemetry counters) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
