package core

import (
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
		res, hit, err := sub.respond(yMinus, true)
		if err != nil || !hit {
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
