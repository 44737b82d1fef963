package model

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// testInstance builds a tiny well-formed instance: 2 SBSs, 3 MU groups,
// 4 contents, full connectivity except SBS1-MU2.
func testInstance() *Instance {
	return &Instance{
		N: 2, U: 3, F: 4,
		Demand: [][]float64{
			{10, 5, 0, 1},
			{2, 2, 2, 2},
			{0, 0, 8, 8},
		},
		Links: [][]bool{
			{true, true, true},
			{true, true, false},
		},
		CacheCap:  []int{2, 1},
		Bandwidth: []float64{20, 10},
		EdgeCost: [][]float64{
			{1, 1, 1},
			{2, 2, 2},
		},
		BSCost: []float64{100, 120, 110},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testInstance().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"zero dims", func(in *Instance) { in.N = 0 }, "dimensions"},
		{"demand rows", func(in *Instance) { in.Demand = in.Demand[:2] }, "Demand has"},
		{"demand cols", func(in *Instance) { in.Demand[1] = in.Demand[1][:3] }, "Demand[1]"},
		{"negative demand", func(in *Instance) { in.Demand[0][0] = -1 }, "non-negative rate"},
		{"nan demand", func(in *Instance) { in.Demand[0][0] = math.NaN() }, "non-negative rate"},
		{"inf demand", func(in *Instance) { in.Demand[0][0] = math.Inf(1) }, "non-negative rate"},
		{"links rows", func(in *Instance) { in.Links = in.Links[:1] }, "Links has"},
		{"links cols", func(in *Instance) { in.Links[0] = in.Links[0][:1] }, "Links[0]"},
		{"cachecap len", func(in *Instance) { in.CacheCap = nil }, "CacheCap has"},
		{"negative cachecap", func(in *Instance) { in.CacheCap[0] = -1 }, "CacheCap[0]"},
		{"bandwidth len", func(in *Instance) { in.Bandwidth = in.Bandwidth[:1] }, "Bandwidth has"},
		{"negative bandwidth", func(in *Instance) { in.Bandwidth[1] = -3 }, "Bandwidth[1]"},
		{"edgecost rows", func(in *Instance) { in.EdgeCost = in.EdgeCost[:1] }, "EdgeCost has"},
		{"edgecost cols", func(in *Instance) { in.EdgeCost[1] = in.EdgeCost[1][:2] }, "EdgeCost[1]"},
		{"negative edgecost", func(in *Instance) { in.EdgeCost[0][2] = -0.5 }, "EdgeCost[0][2]"},
		{"bscost len", func(in *Instance) { in.BSCost = in.BSCost[:1] }, "BSCost has"},
		{"nan bscost", func(in *Instance) { in.BSCost[2] = math.NaN() }, "BSCost[2]"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			in := testInstance()
			tc.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestValidateNil(t *testing.T) {
	var in *Instance
	if err := in.Validate(); err == nil {
		t.Fatal("Validate() on nil = nil, want error")
	}
}

func TestCloneIndependence(t *testing.T) {
	in := testInstance()
	cp := in.Clone()
	cp.Demand[0][0] = 999
	cp.Links[0][0] = false
	cp.CacheCap[0] = 99
	cp.Bandwidth[0] = 1
	cp.EdgeCost[0][0] = 7
	cp.BSCost[0] = 1
	if in.Demand[0][0] == 999 || !in.Links[0][0] || in.CacheCap[0] == 99 ||
		in.Bandwidth[0] == 1 || in.EdgeCost[0][0] == 7 || in.BSCost[0] == 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTotals(t *testing.T) {
	in := testInstance()
	if got, want := in.TotalDemand(), 40.0; got != want {
		t.Errorf("TotalDemand() = %v, want %v", got, want)
	}
	if got, want := in.LinkCount(), 5; got != want {
		t.Errorf("LinkCount() = %d, want %d", got, want)
	}
	// W = Σ d̂_u Σ_f λ_uf = 100·16 + 120·8 + 110·16 = 4320.
	if got, want := in.MaxCost(), 4320.0; got != want {
		t.Errorf("MaxCost() = %v, want %v", got, want)
	}
	// All groups are linked to at least one SBS here.
	if got, want := in.ReachableDemand(), 40.0; got != want {
		t.Errorf("ReachableDemand() = %v, want %v", got, want)
	}
}

func TestReachableDemandExcludesUnlinked(t *testing.T) {
	in := testInstance()
	in.Links[0][2] = false // MU2 now unlinked (SBS1-MU2 already false)
	if got, want := in.ReachableDemand(), 24.0; got != want {
		t.Errorf("ReachableDemand() = %v, want %v", got, want)
	}
}

func TestLinkedGroups(t *testing.T) {
	in := testInstance()
	got := in.LinkedGroups(1)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("LinkedGroups(1) = %v, want [0 1]", got)
	}
}

func TestEmptyRoutingCostIsMaxCost(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	cb := TotalServingCost(in, y)
	if cb.Edge != 0 {
		t.Errorf("Edge cost of empty routing = %v, want 0", cb.Edge)
	}
	if cb.Total != in.MaxCost() {
		t.Errorf("Total cost of empty routing = %v, want MaxCost %v", cb.Total, in.MaxCost())
	}
}

func TestCostBreakdown(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	// SBS0 fully serves MU0's demand for content 0 (λ=10, d=1, d̂=100).
	y.Set(0, 0, 0, 1)
	cb := TotalServingCost(in, y)
	if got, want := cb.Edge, 10.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Edge = %v, want %v", got, want)
	}
	if got, want := cb.Backhaul, 4320.0-1000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Backhaul = %v, want %v", got, want)
	}
	if got, want := cb.Total, 3330.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestBackhaulClampsOverserve(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	// Both SBSs serve MU0's content 0 fully: aggregate = 2, residual clamps to 0.
	y.Set(0, 0, 0, 1)
	y.Set(1, 0, 0, 1)
	got := BackhaulServingCost(in, y)
	want := 4320.0 - 1000.0 // only content 0 of MU0 removed, not doubly credited
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Backhaul with overserve = %v, want %v", got, want)
	}
}

func TestAggregateMasksLinks(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	y.Set(1, 2, 0, 1) // SBS1 has no link to MU2: must not count
	agg := y.Aggregate(in)
	if agg.At(2, 0) != 0 {
		t.Errorf("Aggregate counted unlinked routing: %v", agg.At(2, 0))
	}
}

func TestLoad(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	y.Set(0, 0, 0, 0.5) // 0.5·10 = 5
	y.Set(0, 1, 3, 1.0) // 1·2 = 2
	if got, want := y.Load(in, 0), 7.0; got != want {
		t.Errorf("Load(0) = %v, want %v", got, want)
	}
}

func TestServedFraction(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	if got := ServedFraction(in, y); got != 0 {
		t.Errorf("ServedFraction(empty) = %v, want 0", got)
	}
	y.Set(0, 0, 0, 1) // 10 of 40 units
	if got, want := ServedFraction(in, y), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("ServedFraction = %v, want %v", got, want)
	}
	// Overserve must clamp per-demand at 1.
	y.Set(1, 0, 0, 1)
	if got, want := ServedFraction(in, y), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("ServedFraction with overserve = %v, want %v", got, want)
	}
}

func TestFeasibilityDetectsEachViolation(t *testing.T) {
	in := testInstance()

	feasX := func() *CachingPolicy { return NewCachingPolicy(in) }
	feasY := func() *RoutingPolicy { return NewRoutingPolicy(in) }

	t.Run("feasible-empty", func(t *testing.T) {
		if vs := CheckFeasibility(in, feasX(), feasY()); len(vs) != 0 {
			t.Fatalf("empty policy flagged infeasible: %s", FormatViolations(vs))
		}
	})
	t.Run("cache-capacity", func(t *testing.T) {
		x := feasX()
		x.Set(1, 0, true)
		x.Set(1, 1, true) // cap is 1
		vs := CheckFeasibility(in, x, feasY())
		requireViolation(t, vs, "cache-capacity (1)")
	})
	t.Run("routing-requires-cache", func(t *testing.T) {
		y := feasY()
		y.Set(0, 0, 0, 0.5)
		vs := CheckFeasibility(in, feasX(), y)
		requireViolation(t, vs, "routing-requires-cache (2)")
	})
	t.Run("bandwidth", func(t *testing.T) {
		x := feasX()
		x.Set(1, 0, true)
		y := feasY()
		y.Set(1, 0, 0, 1) // load 10 = B exactly: feasible
		if vs := CheckFeasibility(in, x, y); len(vs) != 0 {
			t.Fatalf("load at capacity flagged infeasible: %s", FormatViolations(vs))
		}
		y.Set(1, 1, 0, 0.5) // +1 unit: over B=10
		vs := CheckFeasibility(in, x, y)
		requireViolation(t, vs, "bandwidth (3)")
	})
	t.Run("no-overserve", func(t *testing.T) {
		x := feasX()
		x.Set(0, 3, true)
		x.Set(1, 3, true)
		y := feasY()
		y.Set(0, 1, 3, 0.8)
		y.Set(1, 1, 3, 0.8)
		vs := CheckFeasibility(in, x, y)
		requireViolation(t, vs, "no-overserve (4)")
	})
	t.Run("box", func(t *testing.T) {
		y := feasY()
		y.Set(0, 0, 0, -0.2)
		vs := CheckFeasibility(in, feasX(), y)
		requireViolation(t, vs, "box")
	})
	t.Run("no-link", func(t *testing.T) {
		x := feasX()
		x.Set(1, 0, true)
		y := feasY()
		y.Set(1, 2, 0, 0.3) // SBS1 not linked to MU2
		vs := CheckFeasibility(in, x, y)
		requireViolation(t, vs, "no-link")
	})
}

func requireViolation(t *testing.T, vs []Violation, constraint string) {
	t.Helper()
	for _, v := range vs {
		if v.Constraint == constraint {
			return
		}
	}
	t.Fatalf("violations %v do not include %q", vs, constraint)
}

// TestFeasibilityFlagsNaN: every check compares as !(v <= bound), so a NaN
// routing entry is a violation — of the box, and through the load and the
// aggregate of bandwidth (3) and no-overserve (4) — whether or not its
// content is cached.
func TestFeasibilityFlagsNaN(t *testing.T) {
	in := &Instance{
		N: 1, U: 1, F: 1,
		Demand:    [][]float64{{1}},
		Links:     [][]bool{{true}},
		CacheCap:  []int{1},
		Bandwidth: []float64{1},
		EdgeCost:  [][]float64{{1}},
		BSCost:    []float64{10},
	}
	for _, cached := range []bool{true, false} {
		x := NewCachingPolicy(in)
		x.Set(0, 0, cached)
		y := NewRoutingPolicy(in)
		y.Set(0, 0, 0, math.NaN())
		vs := CheckFeasibility(in, x, y)
		for _, c := range []string{"box", "bandwidth (3)", "no-overserve (4)"} {
			requireViolation(t, vs, c)
		}
		requireViolation(t, CheckSBS(in, 0, x.RowBools(0), y.SBS(0)), "box")
	}
}

// TestCheckSBSMatchesCheckFeasibility: CheckSBS reports exactly the
// violations CheckFeasibility attributes to SBS n, in the same order.
func TestCheckSBSMatchesCheckFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		in, y, x := randomPolicyInstance(rng, 1+rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(5))
		all := CheckFeasibility(in, x, y)
		if len(all) >= 100 {
			continue // capped: the per-SBS subsets are not complete
		}
		for n := 0; n < in.N; n++ {
			tag := fmt.Sprintf("n=%d", n)
			var want []Violation
			for _, v := range all {
				if v.Where == tag || strings.HasPrefix(v.Where, tag+" ") {
					want = append(want, v)
				}
			}
			got := CheckSBS(in, n, x.RowBools(n), y.SBS(n))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d SBS %d: CheckSBS = %v, want %v", trial, n, got, want)
			}
		}
	}
}

func TestFeasibilityViolationCap(t *testing.T) {
	in := &Instance{
		N: 1, U: 30, F: 30,
		Demand:    make([][]float64, 30),
		Links:     [][]bool{make([]bool, 30)},
		CacheCap:  []int{0},
		Bandwidth: []float64{0},
		EdgeCost:  [][]float64{make([]float64, 30)},
		BSCost:    make([]float64, 30),
	}
	for u := range in.Demand {
		in.Demand[u] = make([]float64, 30)
	}
	y := NewRoutingPolicy(in)
	for u := 0; u < 30; u++ {
		for f := 0; f < 30; f++ {
			y.Set(0, u, f, -1) // 900 box violations
		}
	}
	vs := CheckFeasibility(in, NewCachingPolicy(in), y)
	if len(vs) != 100 {
		t.Fatalf("violation list length = %d, want capped at 100", len(vs))
	}
}

func TestPolicyClones(t *testing.T) {
	in := testInstance()
	x := NewCachingPolicy(in)
	x.Set(0, 1, true)
	xc := x.Clone()
	xc.Set(0, 1, false)
	if !x.Get(0, 1) {
		t.Fatal("CachingPolicy.Clone shares storage")
	}
	if got := x.Contents(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Contents(0) = %v, want [1]", got)
	}
	if got := x.Count(0); got != 1 {
		t.Fatalf("Count(0) = %d, want 1", got)
	}

	y := NewRoutingPolicy(in)
	y.Set(0, 0, 0, 0.5)
	yc := y.Clone()
	yc.Set(0, 0, 0, 0.9)
	if y.At(0, 0, 0) != 0.5 {
		t.Fatal("RoutingPolicy.Clone shares storage")
	}

	y.SetSBS(1, in.NewUFMat())
	if y.SBS(1).At(0, 0) != 0 {
		t.Fatal("SetSBS did not replace block")
	}
}

func TestSolutionString(t *testing.T) {
	s := &Solution{Cost: CostBreakdown{Edge: 1, Backhaul: 2, Total: 3}}
	if got := s.String(); !strings.Contains(got, "cost=3.00") {
		t.Errorf("String() = %q, want cost=3.00", got)
	}
}
