package core

import (
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
// the properties the seed implementation got from recomputing
// AggregateExcept every phase.
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
	cfg.BroadcastTap = func(int, int, [][]float64) {}
	if _, err := NewCoordinator(inst, cfg); err == nil || !strings.Contains(err.Error(), "tap") {
		t.Errorf("tap on jacobi engine: got %v", err)
	}

	cfg = jacobiCfg()
	cfg.Checkpoint = &CheckpointConfig{Sink: model.NewMemCheckpointStore(0), EachPhase: true}
	if _, err := NewCoordinator(inst, cfg); err == nil || !strings.Contains(err.Error(), "atomic") {
		t.Errorf("per-phase checkpoints on jacobi engine: got %v", err)
	}
}

// TestJacobiCheckpointResumeBitIdentical brings the crash-recovery
// guarantee to the Jacobi family: snapshots taken at round boundaries
// resume bit-identically — under the reference engine, the parallel
// engine (same family), and with LPPM active.
func TestJacobiCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := randomInstance(rng, 4, 6, 8)

	store := model.NewMemCheckpointStore(0)
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
		if ck.Phase != 0 {
			t.Fatalf("jacobi snapshot at mid-sweep phase %d", ck.Phase)
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

	store := model.NewMemCheckpointStore(0)
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

	gsStore := model.NewMemCheckpointStore(0)
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

	jacStore := model.NewMemCheckpointStore(0)
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
