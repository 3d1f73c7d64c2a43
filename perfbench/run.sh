#!/usr/bin/env bash
# Builds the serving-stack benchmark from the checkout's sources and runs
# one workload:
#
#   bash perfbench/run.sh --workload point-lockstep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The go command's caches, temporary files
# and configuration, and the binary, all live under .bench_build/, so the
# run reads and writes only inside the checkout. A tree without the ssync
# module next to perfbench/ fails the build, and the script exits
# non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
