#!/bin/sh
# Builds the end-to-end campaign benchmark from the checkout's sources and
# runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload uarch-fig4 --seed 42 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout. Without the repository's sources next to e2ebench/ the build
# fails and the script exits non-zero before printing a result.
set -eu
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" --workdir "$out" "$@"
