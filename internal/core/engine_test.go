package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"edgecache/internal/model"
)

// jacobiCfg returns a config running the reference Jacobi engine.
func jacobiCfg() Config {
	cfg := DefaultConfig()
	cfg.Engine = EngineJacobi
	return cfg
}

// parallelCfg returns a config running the parallel engine with the given
// pool size.
func parallelCfg(workers int) Config {
	cfg := DefaultConfig()
	cfg.Engine = EngineParallelJacobi
	cfg.Workers = workers
	return cfg
}

// TestParallelBitIdenticalToReferenceAcrossWorkerCounts is the
// determinism headline: the goroutine-sharded engine must reproduce the
// sequential reference Jacobi trajectory bit-for-bit at every worker
// count — the reduction order is fixed by construction, not by
// scheduling.
func TestParallelBitIdenticalToReferenceAcrossWorkerCounts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 6, 9, 11)

		ref, err := NewCoordinator(inst, jacobiCfg())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			coord, err := NewCoordinator(inst, parallelCfg(workers))
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Run()
			coord.Close()
			if err != nil {
				t.Fatal(err)
			}
			bitEqualResults(t, got, want, "parallel engine")
		}
	}
}

// TestParallelBitIdenticalWithPrivacy extends the guarantee to LPPM runs:
// the parallel engine draws from the shared noise stream in the same
// ascending-SBS order as the sequential engines, so even the noised
// trajectories match bit-for-bit.
func TestParallelBitIdenticalWithPrivacy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 5, 8, 10)
	const noiseSeed = 77

	run := func(cfg Config) *RunResult {
		t.Helper()
		cfg.MaxSweeps = 8
		cfg.Privacy = &PrivacyConfig{Epsilon: 1.0, Delta: 0.4, Noise: NewNoiseSource(noiseSeed)}
		coord, err := NewCoordinator(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		res, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(jacobiCfg())
	for _, workers := range []int{1, 3} {
		bitEqualResults(t, run(parallelCfg(workers)), want, "private parallel run")
	}
}

// TestJacobiTrackerMatchesReferenceRepair pins the engines' incremental
// aggregate to the reference definitions: after a run, the tracker-
// maintained aggregate of the returned policy must equal a from-scratch
// AggregateInto rebuild, and the repair must leave no overserve behind —
// the properties the seed implementation got from recomputing y_{-n}
// from scratch every phase.
func TestJacobiTrackerMatchesReferenceRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst := randomInstance(rng, 5, 7, 8)
	coord, err := NewCoordinator(inst, jacobiCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Solution.Routing.Aggregate(inst)
	for u := 0; u < inst.U; u++ {
		for f := 0; f < inst.F; f++ {
			if agg.At(u, f) > 1+1e-9 {
				t.Fatalf("overserve at (%d,%d): %v", u, f, agg.At(u, f))
			}
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := randomInstance(rng, 3, 5, 6)

	cfg := DefaultConfig()
	cfg.Engine = EngineKind(42)
	if _, err := NewCoordinator(inst, cfg); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Errorf("unknown engine: got %v", err)
	}

	cfg = DefaultConfig()
	cfg.Workers = 2
	if _, err := NewCoordinator(inst, cfg); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("workers on sequential engine: got %v", err)
	}

	cfg = parallelCfg(-1)
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("negative workers: want error")
	}

	cfg = jacobiCfg()
	cfg.Restarts = 2
	if _, err := NewCoordinator(inst, cfg); err == nil || !strings.Contains(err.Error(), "Restarts") {
		t.Errorf("restarts on jacobi engine: got %v", err)
	}

	cfg = jacobiCfg()
	cfg.BroadcastTap = func(int, int, model.Mat) {}
	if _, err := NewCoordinator(inst, cfg); err == nil || !strings.Contains(err.Error(), "tap") {
		t.Errorf("tap on jacobi engine: got %v", err)
	}
}

// TestJacobiCheckpointResumeBitIdentical brings the crash-recovery
// guarantee to the Jacobi family: snapshots taken at round boundaries
// resume bit-identically — under the reference engine, the parallel
// engine (same family), and with LPPM active.
func TestJacobiCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := randomInstance(rng, 4, 6, 8)

	store := model.NewMemCheckpointStore()
	cfg := jacobiCfg()
	cfg.Checkpoint = &CheckpointConfig{Sink: store}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	snaps := store.All()
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots captured", len(snaps))
	}
	for _, ck := range snaps {
		if ck.Engine != model.EngineJacobi {
			t.Fatalf("snapshot records engine %v, want jacobi", ck.Engine)
		}
		// Resume under the reference engine.
		fresh, err := NewCoordinator(inst, jacobiCfg())
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Resume(ck)
		if err != nil {
			t.Fatalf("resume at sweep %d: %v", ck.Sweep, err)
		}
		bitEqualResults(t, got, want, "jacobi resume")

		// Cross-engine, same family: the parallel engine must continue
		// the same trajectory.
		par, err := NewCoordinator(inst, parallelCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		got, err = par.Resume(ck)
		par.Close()
		if err != nil {
			t.Fatalf("parallel resume at sweep %d: %v", ck.Sweep, err)
		}
		bitEqualResults(t, got, want, "parallel resume of jacobi snapshot")
	}
}

// TestParallelPrivateCheckpointResume runs the full stack at once:
// parallel engine, LPPM noise, boundary checkpoints, resume.
func TestParallelPrivateCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inst := randomInstance(rng, 4, 6, 7)
	const seed = 55

	cfgFor := func(noise *NoiseSource) Config {
		cfg := parallelCfg(2)
		cfg.MaxSweeps = 6
		cfg.Privacy = &PrivacyConfig{Epsilon: 1.0, Delta: 0.4, Noise: noise}
		return cfg
	}

	store := model.NewMemCheckpointStore()
	cfg := cfgFor(NewNoiseSource(seed))
	cfg.Checkpoint = &CheckpointConfig{Sink: store}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	want, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range store.All() {
		fresh, err := NewCoordinator(inst, cfgFor(NewNoiseSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Resume(ck)
		fresh.Close()
		if err != nil {
			t.Fatalf("resume at sweep %d: %v", ck.Sweep, err)
		}
		bitEqualResults(t, got, want, "private parallel resume")
	}
}

// TestResumeEngineFamilyMismatch rejects cross-family resume in both
// directions: the Gauss-Seidel and Jacobi trajectories diverge, so
// continuing one from the other's snapshot would silently corrupt the
// bit-identity guarantee.
func TestResumeEngineFamilyMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inst := randomInstance(rng, 3, 5, 6)

	gsStore := model.NewMemCheckpointStore()
	cfg := DefaultConfig()
	cfg.Checkpoint = &CheckpointConfig{Sink: gsStore}
	gs, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Run(); err != nil {
		t.Fatal(err)
	}
	gsCk, err := gsStore.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if gsCk.Engine != model.EngineGaussSeidel {
		t.Fatalf("gs snapshot records engine %v", gsCk.Engine)
	}

	jac, err := NewCoordinator(inst, jacobiCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jac.Resume(gsCk); err == nil || !strings.Contains(err.Error(), "family") {
		t.Errorf("jacobi resume of gs snapshot: got %v", err)
	}

	jacStore := model.NewMemCheckpointStore()
	cfg = jacobiCfg()
	cfg.Checkpoint = &CheckpointConfig{Sink: jacStore}
	jacCk, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jacCk.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := jacStore.Latest()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Resume(snap); err == nil || !strings.Contains(err.Error(), "family") {
		t.Errorf("gs resume of jacobi snapshot: got %v", err)
	}
}

// TestParallelEngineCloseIdempotent double-closes and verifies a closed
// engine refuses to run rather than deadlocking.
func TestParallelEngineCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	inst := randomInstance(rng, 3, 4, 5)
	coord, err := NewCoordinator(inst, parallelCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	coord.Close()
	if _, err := coord.Run(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("run after close: got %v", err)
	}
}

// identicalSBSInstance returns an instance of n SBSs with the same links,
// costs, bandwidth and cache size. No SBS links MU group 3, so a merge
// over dirty rows splits into two runs.
func identicalSBSInstance(n int) *model.Instance {
	const u, f = 7, 5
	inst := &model.Instance{
		N: n, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, n),
		CacheCap:  make([]int, n),
		Bandwidth: make([]float64, n),
		EdgeCost:  make([][]float64, n),
		BSCost:    make([]float64, u),
	}
	for i := range inst.Demand {
		inst.Demand[i] = make([]float64, f)
		for j := range inst.Demand[i] {
			inst.Demand[i][j] = float64(1 + (3*i+5*j)%7)
		}
		inst.BSCost[i] = 100
	}
	for s := 0; s < n; s++ {
		inst.Links[s] = make([]bool, u)
		inst.EdgeCost[s] = make([]float64, u)
		for i := range inst.Links[s] {
			inst.Links[s][i] = i != 3
			inst.EdgeCost[s][i] = 1 + float64(i)/2
		}
		inst.CacheCap[s] = 2
		inst.Bandwidth[s] = 60
	}
	return inst
}

// TestJacobiMergeRepairsSharedClaims makes the round's merge provably run
// the overserve repair: N identical SBSs all solve round 1 against a zero
// y_{-n}, so their uploads are N copies of one block whose N-fold sum
// exceeds one. Both engines must then agree bit for bit, at worker counts
// that split the 7 rows unevenly, with the memo on and off; and the
// reference engine's memo-on accounting must partition N every sweep.
func TestJacobiMergeRepairsSharedClaims(t *testing.T) {
	const n = 3
	inst := identicalSBSInstance(n)
	sub, err := NewSubproblem(inst, 0, DefaultSubproblemConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	overserved := false
	for _, v := range res.Routing.Data {
		if n*v > 1+1e-12 {
			overserved = true
		}
	}
	if !overserved {
		t.Fatal("round 1's identical uploads never sum past one; the repair would not run")
	}

	base := func(cfg Config) Config {
		cfg.Gamma = 1e-300
		cfg.MaxSweeps = 10
		return cfg
	}
	want := runCfg(t, inst, withoutIncremental(base(jacobiCfg())))
	// Round 1 overserved, so the repair must have scaled it back.
	coord, err := NewCoordinator(inst, withoutIncremental(base(jacobiCfg())))
	if err != nil {
		t.Fatal(err)
	}
	st := NewSweepState(inst, identityOrder(inst.N))
	if err := coord.engine.Sweep(st, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range st.Tracker.Aggregate().Data {
		if v > 1+1e-12 {
			t.Fatalf("round 1 aggregate[%d] = %v after the merge, want ≤ 1", i, v)
		}
	}

	memoRef := runCfg(t, inst, base(jacobiCfg()))
	bitEqualResults(t, memoRef, want, "memo reference engine")
	for i, w := range memoRef.Work {
		if w.Solves+w.Skipped != inst.N {
			t.Fatalf("reference sweep %d work %+v does not partition N=%d", i, w, inst.N)
		}
	}
	for _, workers := range []int{1, 2, 3} {
		for _, memo := range []bool{true, false} {
			cfg := base(parallelCfg(workers))
			cfg.DisableIncremental = !memo
			got := runCfg(t, inst, cfg)
			bitEqualResults(t, got, want, fmt.Sprintf("parallel workers=%d memo=%v", workers, memo))
		}
	}
}

// TestJacobiFullyHitRoundIsNoOp drives the reference Jacobi engine and
// the parallel engine at 1, 2 and 3 workers round by round past a bitwise
// fixed point with the memo on. No engine short-cuts a round whose every
// memo hits: each answers every phase from the memo, finds no dirty block
// and must leave its bits unchanged, counting N skips.
// Every round's solves and skips partition N and match across the
// engines, and every engine's state is bit-equal to the reference's.
func TestJacobiFullyHitRoundIsNoOp(t *testing.T) {
	// Seed 2 reaches a Jacobi fixed point after about six rounds.
	rng := rand.New(rand.NewSource(2))
	inst := randomInstance(rng, 6, 9, 11)
	type run struct {
		name string
		c    *Coordinator
		st   *SweepState
	}
	runs := []run{{name: "reference"}}
	for _, workers := range []int{1, 2, 3} {
		runs = append(runs, run{name: fmt.Sprintf("parallel workers=%d", workers)})
	}
	for i := range runs {
		cfg := jacobiCfg()
		if i > 0 {
			cfg = parallelCfg(i)
		}
		c, err := NewCoordinator(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		runs[i].c, runs[i].st = c, NewSweepState(inst, identityOrder(inst.N))
	}
	bitsOf := func(st *SweepState) []float64 {
		return append(append([]float64(nil), st.Y.T.Data...), st.Tracker.Aggregate().Data...)
	}
	fullHits := 0
	for round := 0; round < 12; round++ {
		var refWork [2]uint64
		fullyHit := false
		for i, r := range runs {
			before := bitsOf(r.st)
			solves, skips := r.c.solves, r.c.skips
			if err := r.c.engine.Sweep(r.st, round); err != nil {
				t.Fatal(err)
			}
			work := [2]uint64{r.c.solves - solves, r.c.skips - skips}
			if i == 0 {
				if work[0]+work[1] != uint64(inst.N) {
					t.Fatalf("round %d: %d solves + %d skips do not partition N=%d", round, work[0], work[1], inst.N)
				}
				refWork, fullyHit = work, work[1] == uint64(inst.N)
			} else {
				if work != refWork {
					t.Fatalf("round %d: %s work %v, reference %v", round, r.name, work, refWork)
				}
				bitEqualHistories(t, bitsOf(r.st), bitsOf(runs[0].st), fmt.Sprintf("round %d %s state", round, r.name))
			}
			if !fullyHit {
				continue
			}
			bitEqualHistories(t, bitsOf(r.st), before, fmt.Sprintf("fully-hit round %d %s", round, r.name))
		}
		if fullyHit {
			fullHits++
		}
	}
	if fullHits == 0 {
		t.Fatal("no round was fully hit; pick an instance that reaches a fixed point")
	}
}
