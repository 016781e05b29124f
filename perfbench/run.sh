#!/usr/bin/env bash
# Builds headtalkd and the load generator from the checkout's sources,
# then runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload wake --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# rendered corpora, the cached enrollment) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command's own config and telemetry files go there too.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/headtalkd" ./cmd/headtalkd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -daemon "$out/headtalkd" -cache "$out/perfbench-cache" "$@"
