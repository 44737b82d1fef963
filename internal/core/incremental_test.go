package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"edgecache/internal/model"
)

// This file pins down the dirty-set memo fast path (DESIGN.md
// "Incremental sweeps"): every engine must produce a trajectory bit-equal
// to the memo-disabled reference — the memo may only skip work whose
// recomputation would reproduce the exact same bits — while actually
// skipping a meaningful share of solves on converging runs.

// withIncremental / withoutIncremental toggle the memo on a base config.
func withoutIncremental(cfg Config) Config {
	cfg.DisableIncremental = true
	return cfg
}

// runCfg builds a coordinator for cfg, runs it and returns the result.
func runCfg(t *testing.T, inst *model.Instance, cfg Config) *RunResult {
	t.Helper()
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

// TestIncrementalBitIdenticalToReference is the memo's headline contract:
// for every engine, with and without LPPM, the memo-enabled run is
// byte-equal to the memo-disabled reference — history, final cost and both
// final policies — and the non-private runs actually skip solves.
func TestIncrementalBitIdenticalToReference(t *testing.T) {
	// Seed and shape picked so the run reaches a bitwise fixed point
	// within the budget on every engine — skips must actually occur for
	// the assertion below to bite (an oscillating instance never skips).
	rng := rand.New(rand.NewSource(41))
	inst := randomInstance(rng, 10, 16, 20)

	base := func(engine Config) Config {
		// A tiny γ drives every engine to its bitwise fixed point, where
		// skips concentrate; the budget keeps the test fast.
		engine.Gamma = 1e-300
		engine.MaxSweeps = 12
		return engine
	}
	engines := map[string]Config{
		"gs":        base(DefaultConfig()),
		"jacobi":    base(jacobiCfg()),
		"parallel1": base(parallelCfg(1)),
		"parallel2": base(parallelCfg(2)),
		"parallelN": base(parallelCfg(runtime.NumCPU())),
	}

	for name, cfg := range engines {
		t.Run(name, func(t *testing.T) {
			want := runCfg(t, inst, withoutIncremental(cfg))
			got := runCfg(t, inst, cfg)
			bitEqualResults(t, got, want, "memo vs reference")
			if tw := got.TotalWork(); tw.Skipped == 0 {
				t.Errorf("memo run skipped no solves (work %+v); the fast path never engaged", got.Work)
			}
			if tw := want.TotalWork(); tw.Skipped != 0 {
				t.Errorf("DisableIncremental run skipped %d solves, want 0", tw.Skipped)
			}
		})
		t.Run(name+"/lppm", func(t *testing.T) {
			private := func(c Config) Config {
				c.Privacy = &PrivacyConfig{Epsilon: 1.0, Delta: 0.4, Noise: NewNoiseSource(123)}
				c.MaxSweeps = 6
				return c
			}
			want := runCfg(t, inst, withoutIncremental(private(cfg)))
			got := runCfg(t, inst, private(cfg))
			// LPPM redraws noise every sweep, so blocks keep changing and
			// skips are not expected — but the trajectories must still
			// match exactly (the memo never fires on changed inputs).
			bitEqualResults(t, got, want, "private memo vs reference")
		})
	}
}

// TestIncrementalSkipsOnStandardScenario is the CI tier gate against
// silent memo regressions: on the standard N=20 scenario every engine
// family must skip at least one solve, and the per-sweep accounting must
// partition N exactly.
func TestIncrementalSkipsOnStandardScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inst := randomInstance(rng, 20, 60, 80)

	gs := DefaultConfig()
	gs.Gamma = 1e-300
	gs.MaxSweeps = 12
	jac := jacobiCfg()
	jac.MaxSweeps = 8
	par := parallelCfg(2)
	par.MaxSweeps = 8

	for name, cfg := range map[string]Config{"gs": gs, "jacobi": jac, "parallel": par} {
		t.Run(name, func(t *testing.T) {
			res := runCfg(t, inst, cfg)
			if len(res.Work) != res.Sweeps {
				t.Fatalf("%d Work entries for %d sweeps", len(res.Work), res.Sweeps)
			}
			for i, w := range res.Work {
				if w.Solves+w.Skipped != inst.N {
					t.Fatalf("sweep %d work %+v does not partition N=%d", i, w, inst.N)
				}
				if w.Solves < 0 || w.Skipped < 0 {
					t.Fatalf("sweep %d has negative work %+v", i, w)
				}
			}
			if tw := res.TotalWork(); tw.Skipped == 0 {
				t.Fatalf("no solves skipped over %d sweeps (work %v); dirty-set memo regressed", res.Sweeps, res.Work)
			}
		})
	}
}

// TestIncrementalResumeBitIdentical extends the memo contract across
// crash recovery: a memo-enabled run checkpointed at every sweep boundary
// must resume onto the memo-disabled reference trajectory from every
// snapshot. A resumed coordinator starts with empty memos, so this also
// exercises the re-learning path.
func TestIncrementalResumeBitIdentical(t *testing.T) {
	// Seed 12 draws an instance that needs three sweeps: two boundaries.
	rng := rand.New(rand.NewSource(12))
	inst := randomInstance(rng, 6, 9, 11)

	base := DefaultConfig()
	base.Gamma = 1e-300
	base.MaxSweeps = 8

	want := runCfg(t, inst, withoutIncremental(base))

	store := model.NewMemCheckpointStore()
	ckCfg := base
	ckCfg.Checkpoint = &CheckpointConfig{Sink: store}
	full := runCfg(t, inst, ckCfg)
	bitEqualResults(t, full, want, "checkpointed memo run vs reference")

	snaps := store.All()
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots captured", len(snaps))
	}
	for _, ck := range snaps {
		fresh, err := NewCoordinator(inst, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Resume(ck)
		if err != nil {
			t.Fatalf("resume at sweep %d: %v", ck.Sweep, err)
		}
		bitEqualResults(t, got, want, "memo resume vs reference")
	}

	// Jacobi family: boundary snapshots, resumed under both engines.
	jac := jacobiCfg()
	jac.MaxSweeps = 8
	jacWant := runCfg(t, inst, withoutIncremental(jac))
	jacStore := model.NewMemCheckpointStore()
	jacCk := jac
	jacCk.Checkpoint = &CheckpointConfig{Sink: jacStore}
	bitEqualResults(t, runCfg(t, inst, jacCk), jacWant, "checkpointed jacobi memo run vs reference")
	for _, ck := range jacStore.All() {
		for name, cfg := range map[string]Config{"jacobi": jac, "parallel": parallelCfg(2)} {
			cfg.MaxSweeps = 8
			fresh, err := NewCoordinator(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Resume(ck)
			fresh.Close()
			if err != nil {
				t.Fatalf("%s resume at round %d: %v", name, ck.Sweep, err)
			}
			bitEqualResults(t, got, jacWant, name+" memo resume vs reference")
		}
	}
}

// TestIncrementalRestartsIsolated pins the memo across Gauss-Seidel
// restarts: the attempts share the sub-problems, so a memo left by one
// attempt meets the next attempt's y_{-n}, and it may answer only where
// the capacities match. The restarted run must match the memo-disabled
// reference.
func TestIncrementalRestartsIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	inst := randomInstance(rng, 6, 8, 10)

	cfg := DefaultConfig()
	cfg.Gamma = 1e-300
	cfg.MaxSweeps = 6
	cfg.Restarts = 2
	cfg.RestartSeed = 7

	want := runCfg(t, inst, withoutIncremental(cfg))
	got := runCfg(t, inst, cfg)
	bitEqualResults(t, got, want, "restarted memo run vs reference")
}

// TestIncrementalMemoUnderBroadcastTap pins that the broadcast tap only
// observes: with the tap set, the memo still skips solves, the tap fires
// once per phase whether the memo answers it or not, and the broadcasts
// are bit-equal to those of a memo-disabled run. The N=20 standard
// scenario is used because its Gauss-Seidel run does skip.
func TestIncrementalMemoUnderBroadcastTap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inst := randomInstance(rng, 20, 60, 80)

	cfg := DefaultConfig()
	cfg.Gamma = 1e-300
	cfg.MaxSweeps = 12
	record := func(cfg Config) (*RunResult, []model.Mat) {
		var broadcasts []model.Mat
		cfg.BroadcastTap = func(_, _ int, yMinus model.Mat) { broadcasts = append(broadcasts, yMinus.Clone()) }
		return runCfg(t, inst, cfg), broadcasts
	}
	res, got := record(cfg)
	ref, want := record(withoutIncremental(cfg))

	if tw := res.TotalWork(); tw.Skipped == 0 {
		t.Fatalf("tapped run skipped no solves (work %v); the tap must not disable the memo", res.Work)
	}
	if n := res.Sweeps * inst.N; len(got) != n {
		t.Fatalf("tap observed %d broadcasts, want %d sweeps × %d SBSs = %d", len(got), res.Sweeps, inst.N, n)
	}
	bitEqualResults(t, res, ref, "tapped memo run vs reference")
	if len(want) != len(got) {
		t.Fatalf("memo run saw %d broadcasts, reference %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].BitsEqual(want[i]) {
			t.Fatalf("broadcast %d (sweep %d, phase %d) differs from the memo-disabled run", i, i/inst.N, i%inst.N)
		}
	}
}

// TestMemoKeyIsResidualCapacities pins the memo key: a phase is answered
// from SBS n's last solve exactly when y_{-n} gives every item the
// capacity bits that solve read. It drives Coordinator.answerPhase, the
// answer of the Gauss-Seidel, reference Jacobi and regional engines, with
// y_{-n} derived through the tracker after installs of SBS 1's block.
func TestMemoKeyIsResidualCapacities(t *testing.T) {
	inst := &model.Instance{
		N: 2, U: 2, F: 3,
		// Content 1 has no demand at user 0: no item reads that entry.
		Demand:    [][]float64{{6, 0, 3}, {4, 5, 2}},
		Links:     [][]bool{{true, true}, {true, true}},
		CacheCap:  []int{2, 2},
		Bandwidth: []float64{10, 10},
		EdgeCost:  [][]float64{{1, 1}, {1, 1}},
		BSCost:    []float64{100, 100},
	}
	c, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := NewSweepState(inst, identityOrder(inst.N))
	yMinus := inst.NewUFMat()
	// set1 installs SBS 1's block with the given entries; SBS 0's block
	// stays zero, so y_{-0} is exactly that block.
	set1 := func(entries map[[2]int]float64) {
		upload := inst.NewUFMat()
		for uf, v := range entries {
			upload.Set(uf[0], uf[1], v)
		}
		st.Tracker.YMinusInto(inst, st.Y, 1, yMinus)
		st.Tracker.Install(inst, st.Y, 1, yMinus, upload)
	}
	// phase answers SBS 0 and checks whether the memo answered it and that
	// the answer is bit-equal to a fresh Subproblem's solve.
	phase := func(label string, wantHit bool) {
		t.Helper()
		st.Tracker.YMinusInto(inst, st.Y, 0, yMinus)
		solves, skips := c.solves, c.skips
		cache, routing, _, err := c.answerPhase(st, 0, 0, yMinus)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if hit := c.skips > skips; hit != wantHit || c.solves+c.skips != solves+skips+1 {
			t.Fatalf("%s: memo hit=%v, want %v", label, hit, wantHit)
		}
		fresh, err := NewSubproblem(inst, 0, DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		if !routing.BitsEqual(want.Routing) || !slices.Equal(cache, want.Cache) {
			t.Fatalf("%s: answer (cache %v) differs from a fresh solve (cache %v)", label, cache, want.Cache)
		}
	}

	// Item (1,0) sees y_{-0} = 1: its capacity is clamped at 0.
	set1(map[[2]int]float64{{0, 0}: 0.5, {1, 0}: 1})
	phase("first phase", false)

	// (a) y_{-0} moves only on a zero-demand entry of a linked row and on
	// an item whose capacity stays clamped at 0: every capacity keeps its
	// bits, so the memo answers.
	set1(map[[2]int]float64{{0, 0}: 0.5, {0, 1}: 0.7, {1, 0}: 1.25})
	phase("capacity-preserving change", true)

	// (b) One ulp on item (0,0) moves its capacity 1 − y: a miss.
	set1(map[[2]int]float64{{0, 0}: math.Nextafter(0.5, 1), {0, 1}: 0.7, {1, 0}: 1.25})
	phase("one-ulp change", false)

	// (c) The exhaustive solver and the fixed-cache router share the
	// workspace but not the memo: the next phase still hits, correctly.
	zero := inst.NewUFMat()
	if _, err := c.subs[0].SolveExact(zero); err != nil {
		t.Fatal(err)
	}
	if _, err := c.subs[0].BestRoutingForCache([]bool{true, false, true}, zero); err != nil {
		t.Fatal(err)
	}
	phase("after SolveExact and BestRoutingForCache", true)

	// (d) A wrong-shape y_{-n} misses and surfaces Solve's error.
	if _, _, _, err := c.answerPhase(st, 0, 0, model.NewMat(1, inst.F)); err == nil {
		t.Fatal("wrong-shape y_{-n}: answered without an error")
	}
}
