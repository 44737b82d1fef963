#!/usr/bin/env bash
# Builds edgebench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/edgebench/run.sh -seed 99 -out cmd/edgebench/results/a
#   bash cmd/edgebench/run.sh --workload dense-jacobi-par2 --seed 7 --seconds 30 --trace 0
#
# edgebench is a Go module of its own (cmd/edgebench/go.mod) that imports
# the repository's packages through a replace directive. Everything the
# build and the runs write — compiler cache, binary, checkpoint scratch —
# goes under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd cmd/edgebench && go build -o "$build/edgebench" .)
exec "$build/edgebench" "$@"
