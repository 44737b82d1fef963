package core

import (
	"fmt"
	"math"
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
// aggregate to the reference definitions: after every round, the
// tracker-maintained aggregate must equal a from-scratch AggregateInto
// rebuild of the round's policy bit for bit, and the repair must leave no
// overserve behind — the properties the seed implementation got from
// recomputing y_{-n} from scratch every phase. It covers the reference
// engine and the pool at 1, 2 and 3 workers, with the memo on and off and
// LPPM on and off, on two instances; the second (seed 2) reaches a fixed
// point through rounds where only some uploads change.
func TestJacobiTrackerMatchesReferenceRepair(t *testing.T) {
	insts := []*model.Instance{
		randomInstance(rand.New(rand.NewSource(13)), 5, 7, 8),
		randomInstance(rand.New(rand.NewSource(2)), 6, 9, 11),
	}
	for i, inst := range insts {
		for workers := 0; workers <= 3; workers++ {
			for _, memo := range []bool{true, false} {
				for _, private := range []bool{false, true} {
					cfg, name := jacobiCfg(), "reference"
					if workers > 0 {
						cfg, name = parallelCfg(workers), fmt.Sprintf("parallel workers=%d", workers)
					}
					cfg.DisableIncremental = !memo
					if private {
						cfg.Privacy = &PrivacyConfig{Epsilon: 1.0, Delta: 0.4, Noise: NewNoiseSource(14)}
					}
					c, err := NewCoordinator(inst, cfg)
					if err != nil {
						t.Fatal(err)
					}
					st := NewSweepState(inst, identityOrder(inst.N))
					for round := 0; round < 8; round++ {
						label := fmt.Sprintf("instance %d %s memo=%v lppm=%v round %d", i, name, memo, private, round)
						if err := c.engine.Sweep(st, round); err != nil {
							t.Fatal(err)
						}
						agg := st.Tracker.Aggregate()
						bitEqualHistories(t, agg.Data, st.Y.Aggregate(inst).Data, label+" aggregate")
						for j, v := range agg.Data {
							if v > 1+1e-12 {
								t.Fatalf("%s: overserve at %d: %v", label, j, v)
							}
						}
					}
					c.Close()
				}
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
// costs, bandwidth and cache size. No SBS links MU group 3, so the merge
// rebuilds one row from no block at all.
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
// memo hits: each answers every phase from the memo, merges and repairs
// every row, and must leave its bits unchanged, counting N skips.
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
		var refWork SweepWork
		fullyHit := false
		for i, r := range runs {
			before := bitsOf(r.st)
			prev := r.c.workTotals()
			if err := r.c.engine.Sweep(r.st, round); err != nil {
				t.Fatal(err)
			}
			tot := r.c.workTotals()
			work := SweepWork{Solves: tot.Solves - prev.Solves, Skipped: tot.Skipped - prev.Skipped}
			if i == 0 {
				if work.Solves+work.Skipped != inst.N {
					t.Fatalf("round %d: %d solves + %d skips do not partition N=%d", round, work.Solves, work.Skipped, inst.N)
				}
				refWork, fullyHit = work, work.Skipped == inst.N
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

// sameSolutionBits reports whether two solutions hold the same cost and
// policies, bit for bit.
func sameSolutionBits(a, b *model.Solution) bool {
	if math.Float64bits(a.Cost.Total) != math.Float64bits(b.Cost.Total) || a.Caching.DiffCount(b.Caching) != 0 {
		return false
	}
	for i, v := range a.Routing.T.Data {
		if math.Float64bits(v) != math.Float64bits(b.Routing.T.Data[i]) {
			return false
		}
	}
	return true
}

// TestEngineResultsOwnTheirState pins the hand-off of the final state: a
// run that ends on its best sweep returns its policies themselves, not
// copies (Driver.Run), so nothing a later run does may write them. Each
// engine, with LPPM off and on, runs one coordinator twice and then
// resumes it from the first run's first snapshot (Restarts > 0, which
// cannot resume, runs a third time instead); every earlier result must
// keep its bits through the later runs, and the resumed run must equal
// the first. The multi-BS case drives RunMultiBS's regional engine on one
// coordinator, as RunMultiBS does.
func TestEngineResultsOwnTheirState(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(55)), 4, 6, 8)
	restarts := DefaultConfig()
	restarts.Restarts, restarts.RestartSeed = 2, 3
	for _, ec := range []struct {
		name    string
		cfg     Config
		regions [][]int
	}{
		{"gauss-seidel", DefaultConfig(), nil},
		{"jacobi", jacobiCfg(), nil},
		{"parallel-1", parallelCfg(1), nil},
		{"parallel-2", parallelCfg(2), nil},
		{"restarts", restarts, nil},
		{"multi-bs", DefaultConfig(), [][]int{{0, 2}, {1, 3}}},
	} {
		for _, private := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lppm=%v", ec.name, private), func(t *testing.T) {
				cfg := ec.cfg
				cfg.MaxSweeps = 6
				var noise *NoiseSource
				if private {
					noise = NewNoiseSource(17)
					cfg.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.4, Noise: noise}
				}
				store := model.NewMemCheckpointStore()
				if cfg.Restarts == 0 {
					cfg.Checkpoint = &CheckpointConfig{Sink: store}
				}
				c, err := NewCoordinator(inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				run, resume := c.Run, c.Resume
				if ec.regions != nil {
					eng := newRegionalEngine(c, ec.regions)
					run = func() (*RunResult, error) {
						return c.runEngine(eng, NewSweepState(inst, identityOrder(inst.N)))
					}
					resume = func(ck *model.Checkpoint) (*RunResult, error) {
						if noise != nil {
							noise.SeekTo(ck.NoiseDraws)
						}
						return c.runEngine(eng, SweepStateFromCheckpoint(inst, ck))
					}
				}

				var results []*RunResult
				var kept []*model.Solution
				for k := 0; k < 3; k++ {
					var res *RunResult
					switch {
					case k < 2 || cfg.Restarts > 0:
						res, err = run()
					case store.Len() == 0:
						t.Fatal("the first run took no snapshot to resume from")
					default:
						res, err = resume(store.All()[0])
					}
					if err != nil {
						t.Fatal(err)
					}
					for j, prev := range results {
						if !sameSolutionBits(prev.Solution, kept[j]) {
							t.Fatalf("run %d changed the solution run %d returned", k, j)
						}
					}
					results = append(results, res)
					kept = append(kept, res.Solution.Clone())
				}
				if cfg.Restarts == 0 {
					bitEqualResults(t, results[2], results[0], "resume of the first run")
				}
			})
		}
	}

	// A checkpointed LPPM run whose best sweep (4 of 0-7) is neither the
	// first nor the last: the snapshot at boundary 5 falls while st.Best
	// holds the current state, and sweep 5 must copy it before
	// overwriting it. Every snapshot from boundary 5 on records that best,
	// and every boundary resumes bit-identically.
	t.Run("lppm-best-before-last", func(t *testing.T) {
		inst := randomInstance(rand.New(rand.NewSource(6)), 3, 5, 7)
		privateCfg := func() Config {
			cfg := DefaultConfig()
			cfg.MaxSweeps = 8
			cfg.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.4, Noise: NewNoiseSource(99)}
			return cfg
		}
		store := model.NewMemCheckpointStore()
		cfg := privateCfg()
		cfg.Checkpoint = &CheckpointConfig{Sink: store}
		want := runCfg(t, inst, cfg)
		best := 0
		for i, cost := range want.History {
			if cost < want.History[best] {
				best = i
			}
		}
		if best == 0 || best >= len(want.History)-1 {
			t.Fatalf("best sweep %d of %d: the case needs an earlier best and a later one", best, len(want.History))
		}
		for _, ck := range store.All() {
			if ck.Sweep > best && !sameSolutionBits(ck.Best, want.Solution) {
				t.Fatalf("snapshot at boundary %d does not record sweep %d's best", ck.Sweep, best)
			}
			fresh, err := NewCoordinator(inst, privateCfg())
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Resume(ck)
			if err != nil {
				t.Fatalf("resume at boundary %d: %v", ck.Sweep, err)
			}
			bitEqualResults(t, got, want, fmt.Sprintf("resume at boundary %d", ck.Sweep))
		}
	})
}
