#!/bin/sh
# verify.sh — the repository's tier-1 gate.
#
# Runs the static checks plus the race-enabled test suites of the packages
# that carry the concurrency- and hot-path-sensitive code:
#
#   internal/model     flat tensor substrate, packed policies (zero-alloc)
#   internal/core      DUA sweep, zero-alloc subproblem workspaces
#   internal/sim       distributed BS/SBS protocol (goroutines + transport)
#   internal/transport in-process message passing
#   internal/chaos     fault schedules against the protocol (short mode)
#   cmd/...            CLI drivers, including the edgelint self-check
#   cmd/edgebench      the benchmark harness (a nested module)
#
# The edgelint gate runs the repository's custom analyzers (internal/lint):
# noalloc, determinism, floateq, flataccess, lockedsend, plus the dataflow
# tier — privflow (//edgecache:private data must pass an LPPM sanitizer
# before transport/checkpoint/log egress), goleak (goroutines in
# cluster/parallel code need a reachable join; tickers/timers need a Stop
# path), and atomicmix (no plain access to sync/atomic locations). It runs
# before the race suites so invariant violations fail fast, and it must
# report zero findings — suppressions need an //edgecache:lint-ignore
# <analyzer> <reason> directive with a written reason. Results are cached
# per package on content hashes (see cmd/edgelint), so repeat runs cost
# one `go list`.
#
# CI and pre-merge checks call this script; it exits non-zero on the first
# failure. The full (non-race) suite is `go test ./...`.
set -eu

cd "$(dirname "$0")"

echo "verify: go vet ./..."
go vet ./...

echo "verify: edgelint ./..."
go run ./cmd/edgelint ./...

# Crash-recovery gate: the checkpoint/resume paths (bit-identical resume,
# snapshot codec hardening, BS crash recovery, state-sync handshake) run
# first under -race so a regression in the headline durability guarantee
# fails fast, before the broad suites.
echo "verify: crash-resume recovery gate (-race)"
go test -race -run 'Resume|Checkpoint|BSCrash|StateSync|ReplyCache|NoiseSource' \
	./internal/model ./internal/core ./internal/sim ./internal/chaos

# Parallel sweep-engine gate: the worker pool's determinism and crash
# recovery run under -race before the broad suites — a data race in the
# pool invalidates the bit-identity guarantee the engines are built on.
# TestIncremental covers the dirty-set memo: bit-identity against the
# memo-disabled reference (±LPPM, across resume) and the solves-skipped>0
# gate on the standard N=20 scenario.
echo "verify: parallel sweep-engine gate (-race)"
go test -race -run 'TestParallel|TestEngine|TestJacobi|TestIncremental' ./internal/core

echo "verify: go test -race ./internal/core/... ./internal/sim/... ./internal/transport/..."
go test -race ./internal/core/... ./internal/sim/... ./internal/transport/...

echo "verify: go test -race ./internal/model/... ./cmd/..."
go test -race ./internal/model/... ./cmd/...

# The benchmark harness is a nested module, so the ./... patterns above
# never build it. Its tests run all four workloads end to end plus their
# bit-identity gates against the in-process reference.
echo "verify: go -C cmd/edgebench vet ./... && go -C cmd/edgebench test ./..."
go -C cmd/edgebench vet ./...
go -C cmd/edgebench test ./...

echo "verify: go test -race -short ./internal/chaos/..."
go test -race -short ./internal/chaos/...

echo "verify: go test -race -short ./internal/soak/... ./internal/leak/..."
go test -race -short ./internal/soak/... ./internal/leak/...

# Randomized chaos soak gate: 25 seeded episodes of generated fault
# schedules (plus per-episode disk fault-injection drills) under -race.
# On failure it writes a ddmin-minimized repro file; replay it with
# `edgesim -soak -soak-repro <file>`. The nightly job runs a much larger
# budget including multi-process cluster episodes.
echo "verify: randomized chaos soak gate (-race, 25 episodes)"
go run -race ./cmd/edgesim -soak -soak-episodes=25 -soak-seed=1

# Cluster supervision gate: real OS processes over TCP under -race — the
# fault-free 10x10 bit-identity run, SIGKILL/SIGSTOP recovery from
# checkpoint, SBS escalation and graceful degradation. These spawn dozens
# of processes; they run last so cheaper failures surface first.
echo "verify: cluster supervision gate (-race)"
go test -race -timeout 600s ./internal/cluster/...

echo "verify: OK"
