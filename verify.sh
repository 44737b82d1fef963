#!/bin/sh
# verify.sh — the repository's tier-1 gate.
#
# Runs the static checks (gofmt, vet, edgelint) plus the race-enabled
# test suites of the packages that carry the concurrency- and
# hot-path-sensitive code:
#
#   internal/model     flat tensor substrate, packed policies (zero-alloc)
#   internal/core      DUA sweep, zero-alloc subproblem workspaces
#   internal/sim       distributed BS/SBS protocol (goroutines + transport)
#   internal/transport hub and TCP endpoints, the send-retry layer, wire codec
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
# <analyzer> <reason> directive with a written reason.
#
# CI and pre-merge checks call this script; it exits non-zero on the first
# failure. The full (non-race) suite is `go test ./...`.
set -eu

cd "$(dirname "$0")"

# Formatting gate: gofmt -l lists every file whose formatting differs
# from gofmt's (nested modules and testdata included) and always exits 0,
# so any listed file fails the gate here.
echo "verify: gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "verify: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "verify: go vet ./..."
go vet ./...

echo "verify: edgelint ./..."
go run ./cmd/edgelint ./...

# Crash-recovery gate: the checkpoint/resume paths (bit-identical resume,
# snapshot codec hardening, BS crash recovery, state-sync handshake, and
# TestSimResumeRestoresHealth: a resumed BS keeps its per-SBS health and
# fault records, and its state-sync skips the quarantined SBS) and
# the protocol's duplicate handling (the duplicate-storm table: 100%
# duplication on every link, bit-identical to the clean run — the
# (sweep, phase) filter is the only one, the transport dedups nothing)
# run first under -race so a regression in either fails fast, before the
# broad suites.
echo "verify: crash-resume recovery gate (-race)"
go test -race -run 'Resume|Checkpoint|BSCrash|StateSync|ReplyCache|NoiseSource|Duplicate' \
	./internal/model ./internal/core ./internal/sim ./internal/chaos

# Retry-layer gate: ReliableEndpoint is the only send-retry loop, and
# TCPEndpoint.Send makes one attempt, so a peer restart is ridden out only
# by the retries redialing. The TCP fault and restart tests, the pinned
# retry schedule and Close waking a pending Recv run ten times under -race
# to shake out dial/close interleavings before the broad suites.
echo "verify: retry-layer gate (-race, 10 runs)"
go test -race -count=10 -run 'TCP|Reliable|Backoff|PendingRecv' ./internal/transport

# Parallel sweep-engine gate: the worker pool's determinism and crash
# recovery, and the setup fan-out that builds the per-SBS solvers on the
# pool's worker count (TestParallelSetupMatchesSerial: solvers built on 1,
# 2 and 3 workers equal the serial ones, field for field), run three times
# under -race, at GOMAXPROCS 1 and 2, before the broad suites — a data
# race in the pool invalidates the bit-identity guarantee the engines are
# built on. Workers share only the read-only
# pre-round aggregate and policy; each memo check reads the workspace of
# the SBS its worker claimed, and each round's merge phase rebuilds and
# repairs row shards concurrently, so more runs and both P counts shake
# out more interleavings. Each SBS's solve and memo-hit counts live in its
# own sub-problem, written only by the worker that claimed it;
# TestParallelSweepZeroAllocsPerWorker checks every round's counts
# partition N. TestJacobiMergeRepairsSharedClaims forces the repair to
# run on uneven shards; TestJacobiGolden pins 12-round trajectories of
# both engines with the memo on; TestIncremental covers the dirty-set memo:
# bit-identity against the memo-disabled reference (±LPPM, across resume)
# and the solves-skipped>0 gate on the standard N=20 scenario.
# TestEngineResultsOwnTheirState checks that a run's result, which takes
# the final state without a copy, keeps its bits through later runs and a
# resume of the same coordinator, on every engine.
echo "verify: parallel sweep-engine gate (-race, 3 runs, -cpu 1,2)"
go test -race -count=3 -cpu 1,2 -run 'TestParallel|TestEngine|TestJacobi|TestIncremental' ./internal/core

# The transport run carries the wire codec's allocation gate:
# TestPhaseCodecAllocs fails if decoding an announce or an upload into
# existing rows allocates at all, or EncodePayload more than its returned
# buffer. BenchmarkPhaseCodec (go test -bench PhaseCodec -benchmem) reports
# the same four directions' time and allocs/op; CI gates on the allocation
# counts, never on the timings.
echo "verify: go test -race ./internal/core/... ./internal/sim/... ./internal/transport/..."
go test -race ./internal/core/... ./internal/sim/... ./internal/transport/...

# Fuzz smoke: the snapshot codec and the wire frame share one
# sparse-block codec (model's pair body), so each byte format's fuzz target
# runs briefly past its committed seeds: strictness, canonical re-encoding
# and the allocation bounds are checked on fresh inputs from both sides of
# the shared code. FuzzTracker checks every aggregate-tracker mutator
# against its value oracle on fresh op streams. The solver's five bit-for-
# bit oracles follow: FuzzDualLoop holds Solve's touched-set dual loop to
# the full-scan reference, FuzzRoutingFill both knapsack fills to a
# sort-based fill, FuzzStaticOrder the lazily pulled static fill order to
# a sort over permuted density orders, FuzzPrimalRecovery the merge walks,
# reading their capacities lazily, to full scans over eager ones, and
# FuzzLazyCapacities lazily read capacities to eager ones, solves and the
# memo key (the read list) included. A failure leaves its input under
# testdata/fuzz, where plain `go test` replays it.
echo "verify: fuzz smoke (FuzzSnapshot, FuzzFrame, FuzzTracker, FuzzDualLoop, FuzzRoutingFill, FuzzStaticOrder, FuzzPrimalRecovery, FuzzLazyCapacities; 10s each)"
go test -run '^$' -fuzz '^FuzzSnapshot$' -fuzztime 10s ./internal/model
go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz '^FuzzTracker$' -fuzztime 10s ./internal/model
go test -run '^$' -fuzz '^FuzzDualLoop$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzRoutingFill$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzStaticOrder$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzPrimalRecovery$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzLazyCapacities$' -fuzztime 10s ./internal/core

echo "verify: go test -race ./internal/model/... ./cmd/..."
go test -race ./internal/model/... ./cmd/...

# The benchmark harness is a nested module, so the ./... patterns above
# never build it. Its tests run all four workloads end to end plus their
# bit-identity gates against the in-process reference.
echo "verify: go -C cmd/edgebench vet ./... && go -C cmd/edgebench test ./..."
go -C cmd/edgebench vet ./...
go -C cmd/edgebench test ./...

# Experiment-output gate: every committed CSV under results/ must
# regenerate byte for byte, so a change that moves any experiment's
# output fails here instead of being found by hand. benchfig writes into
# a fresh temporary directory, never into results/, and the directory is
# removed on exit.
echo "verify: benchfig CSVs byte-identical to results/"
csvtmp=$(mktemp -d)
trap 'rm -rf "$csvtmp"' EXIT
go run ./cmd/benchfig -all -summary -extra -ablations -csv "$csvtmp" >/dev/null
diff -r "$csvtmp" results

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
