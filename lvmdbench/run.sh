#!/usr/bin/env bash
# Builds cmd/lvmd and lvmdbench from this checkout, then runs lvmdbench
# with the given arguments. Run from the repository root:
#
#   bash lvmdbench/run.sh --workload commit-small --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
# The Go toolchain's caches, module path and telemetry stay in the
# build directory too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off

go -C lvmdbench build -o "$out/lvmdbench" . >&2
go build -o "$out/lvmd" ./cmd/lvmd >&2
exec "$out/lvmdbench" -lvmd "$out/lvmd" -workdir "$out" "$@"
