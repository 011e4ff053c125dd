#!/usr/bin/env bash
# Builds the starmesh service and the benchmark's load generator from this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload tiny-open --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run
# write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home" "$out/run"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off

go build -o "$out/bin/starmesh" ./cmd/starmesh >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -server "$out/bin/starmesh" -workdir "$out/run" "$@"
