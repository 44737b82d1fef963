package core

import (
	"runtime"
	"testing"

	"edgecache/internal/model"
)

// allocSink keeps results alive so the compiler cannot elide the work
// under test.
var allocSink float64

// TestSweepPhaseZeroAllocs asserts the zero-alloc contract of the DUA hot
// path: after warm-up, one full SBS phase — deriving y_{-n} from the
// running aggregate, solving P_n in the workspace, installing the cache
// row and advancing the aggregate — performs zero heap allocations. This
// is the acceptance criterion for the flat-tensor refactor; any future
// allocation sneaking into Subproblem.Solve, AggregateTracker or the
// policy setters fails this test.
func TestSweepPhaseZeroAllocs(t *testing.T) {
	inst := benchScale(3, 30, 50)
	subs := make([]*Subproblem, inst.N)
	for n := 0; n < inst.N; n++ {
		sub, err := NewSubproblem(inst, n, DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		subs[n] = sub
	}
	x := model.NewCachingPolicy(inst)
	y := model.NewRoutingPolicy(inst)
	tracker := model.NewAggregateTracker(inst)
	yMinus := inst.NewUFMat()

	sweep := func() {
		for n := 0; n < inst.N; n++ {
			tracker.YMinusInto(inst, y, n, yMinus)
			res, err := subs[n].Solve(yMinus)
			if err != nil {
				panic(err)
			}
			x.SetRow(n, res.Cache)
			tracker.Install(inst, y, n, yMinus, res.Routing)
		}
		cost := model.TotalServingCostFromAggregate(inst, y, tracker.Aggregate())
		allocSink = cost.Total
	}

	// Warm up: the first solves size the per-subproblem workspaces.
	sweep()
	sweep()

	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Fatalf("steady-state sweep allocated %.1f times per run, want 0", allocs)
	}
}

// TestSolveZeroAllocsAfterWarmup pins the same contract on a single warm
// Solve call, which is the unit the benchmark tracks: at paper scale
// against an empty y₋ₙ, and at the dense shape (N=50, U=100, F=100, 60%
// links; about 4,000 items per SBS) against a partly served y₋ₙ, which
// puts the routing heap and primal recovery's scoring under the pin.
func TestSolveZeroAllocsAfterWarmup(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, u, f int
		served  bool
	}{
		{"paper", 3, 30, 50, false},
		{"dense", 50, 100, 100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := benchScale(tc.n, tc.u, tc.f)
			sub, err := NewSubproblem(inst, 1, DefaultSubproblemConfig())
			if err != nil {
				t.Fatal(err)
			}
			yMinus := inst.NewUFMat()
			if tc.served {
				fillYMinus(yMinus)
			}
			if _, err := sub.Solve(yMinus); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				res, err := sub.Solve(yMinus)
				if err != nil {
					panic(err)
				}
				allocSink = res.Gain
			}); allocs != 0 {
				t.Fatalf("warm Solve allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

// fillYMinus makes y₋ₙ look like a mid-sweep aggregate: every third pair
// is partly served by the other SBSs and every seventh fully.
func fillYMinus(yMinus model.Mat) {
	for i := range yMinus.Data {
		switch {
		case i%7 == 0:
			yMinus.Data[i] = 1
		case i%3 == 0:
			yMinus.Data[i] = 0.4
		}
	}
}

// TestMemoProbeZeroAllocs pins the dirty-set fast path itself: checking
// the memo key against y_{-n} and answering from the workspace must stay
// allocation-free — the whole point of the skip is to cost less than the
// solve.
func TestMemoProbeZeroAllocs(t *testing.T) {
	inst := benchScale(3, 30, 50)
	sub, err := NewSubproblem(inst, 1, DefaultSubproblemConfig())
	if err != nil {
		t.Fatal(err)
	}
	yMinus := inst.NewUFMat()
	fillYMinus(yMinus)
	if _, err := sub.Solve(yMinus); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		skips := sub.skips
		res, err := sub.respond(yMinus, true)
		if err != nil || sub.skips != skips+1 {
			panic("memo must hit on the y_{-n} the last solve read")
		}
		allocSink = res.Gain
	}); allocs != 0 {
		t.Fatalf("memo probe allocated %.1f times per run, want 0", allocs)
	}
}

// TestSolveResultIsWorkspaceOwned documents the reuse contract: the Result
// returned by Solve aliases the subproblem's workspace and is overwritten
// by the next call. Callers that need to retain it must copy (SetRow and
// SetSBS/Install do exactly that).
func TestSolveResultIsWorkspaceOwned(t *testing.T) {
	inst := benchScale(2, 8, 12)
	sub, err := NewSubproblem(inst, 0, DefaultSubproblemConfig())
	if err != nil {
		t.Fatal(err)
	}
	yMinus := inst.NewUFMat()
	first, err := sub.Solve(yMinus)
	if err != nil {
		t.Fatal(err)
	}
	// Push every foreign aggregate to saturation: the second solve must
	// produce a different routing, and it must overwrite the first result
	// in place.
	for i := range yMinus.Data {
		yMinus.Data[i] = 1
	}
	second, err := sub.Solve(yMinus)
	if err != nil {
		t.Fatal(err)
	}
	if &first.Routing.Data[0] != &second.Routing.Data[0] {
		t.Fatal("Solve allocated a fresh Result; expected workspace reuse")
	}
}

// TestNewCoordinatorAllocs gates setup's allocations at the dense shape
// (edgebench's dense instance, N=50, U=100, F=100, 60% links) with the
// Gauss-Seidel engine: one NewCoordinator validates the instance and
// builds 50 per-SBS solvers with their workspaces. It bounds the bytes
// (runtime.MemStats.TotalAlloc) and the allocation count (Mallocs) of one
// call, averaged over a few calls on one P as testing.AllocsPerRun does.
// Growing the per-item state or the workspace fails it; it never gates
// time.
func TestNewCoordinatorAllocs(t *testing.T) {
	// The bounds sit just above this toolchain's measurement with one
	// backing array for each workspace's caps, mu, yDual and blockMin:
	// 26,511,622 bytes in 1,505 allocations (26,902,528 bytes in 1,605
	// with three arrays and no blockMin; 30,310,406 bytes with the 40-byte
	// item).
	const (
		runs      = 5
		maxBytes  = 27_000_000
		maxAllocs = 1_506
	)
	inst := denseShape()
	build := func() {
		c, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("NewCoordinator (dense, GS): %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("NewCoordinator allocated %d bytes in %d allocations, want at most %d bytes in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// denseRunCfg is edgebench's dense workload configuration: one parallel
// Jacobi round on two workers.
func denseRunCfg() Config {
	cfg := parallelCfg(2)
	cfg.MaxSweeps = 1
	cfg.Gamma = 1e-300
	return cfg
}

// TestRunAllocs gates the allocations of the run edgebench's dense
// workload measures: one Run of a fresh coordinator, one parallel Jacobi
// round on two workers, at the dense shape. The result takes the round's
// state without a copy, so the run allocates one N×U×F routing tensor
// (NewSweepState's, which the result keeps) and small change: the caching
// policy, the tracker's U×F aggregate, the pool's start. It bounds the
// bytes (runtime.MemStats.TotalAlloc) and the allocation count (Mallocs)
// per run, averaged over a few runs; it never gates time.
func TestRunAllocs(t *testing.T) {
	// The bounds sit just above this toolchain's measurement: 4,089,664
	// bytes in 14 to 16 allocations (8,096,668 bytes in 19 when every improving
	// sweep copied its state).
	const (
		runs      = 5
		tensor    = 50 * 100 * 100 * 8
		maxBytes  = tensor + 128<<10
		maxAllocs = 20
	)
	inst := denseShape()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var bytes, allocs uint64
	for i := 0; i <= runs; i++ {
		c, err := NewCoordinator(inst, denseRunCfg())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := c.Run()
		runtime.ReadMemStats(&after)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		allocSink = res.Solution.Cost.Total
		if i > 0 { // the first run warms up the runtime
			bytes += after.TotalAlloc - before.TotalAlloc
			allocs += after.Mallocs - before.Mallocs
		}
	}
	bytes, allocs = bytes/runs, allocs/runs
	t.Logf("Run (dense, parallel-2, one round): %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("Run allocated %d bytes in %d allocations, want at most %d bytes in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
