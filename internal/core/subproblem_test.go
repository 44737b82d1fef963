package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"edgecache/internal/model"
)

// randomInstance draws a small random instance with the paper's structure:
// d̂ ≫ d, unit-size contents, random links.
func randomInstance(rng *rand.Rand, n, u, f int) *model.Instance {
	inst := &model.Instance{
		N: n, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, n),
		CacheCap:  make([]int, n),
		Bandwidth: make([]float64, n),
		EdgeCost:  make([][]float64, n),
		BSCost:    make([]float64, u),
	}
	for i := 0; i < u; i++ {
		inst.Demand[i] = make([]float64, f)
		for j := 0; j < f; j++ {
			if rng.Float64() < 0.7 {
				inst.Demand[i][j] = rng.Float64() * 20
			}
		}
		inst.BSCost[i] = 100 + rng.Float64()*50
	}
	for i := 0; i < n; i++ {
		inst.Links[i] = make([]bool, u)
		inst.EdgeCost[i] = make([]float64, u)
		for j := 0; j < u; j++ {
			inst.Links[i][j] = rng.Float64() < 0.6
			inst.EdgeCost[i][j] = 1 + rng.Float64()*3
		}
		inst.CacheCap[i] = 1 + rng.Intn(f)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

func zeroYMinus(inst *model.Instance) model.Mat { return inst.NewUFMat() }

func TestNewSubproblemErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := randomInstance(rng, 2, 3, 4)
	if _, err := NewSubproblem(inst, -1, SubproblemConfig{}); err == nil {
		t.Error("negative SBS index: want error")
	}
	if _, err := NewSubproblem(inst, 2, SubproblemConfig{}); err == nil {
		t.Error("out-of-range SBS index: want error")
	}
	bad := inst.Clone()
	bad.Demand[0][0] = -1
	if _, err := NewSubproblem(bad, 0, SubproblemConfig{}); err == nil {
		t.Error("invalid instance: want error")
	}
}

// TestNewSubproblemValidatesInstance pins the check NewSubproblem keeps
// for its direct callers (sim, the baselines): NewCoordinator validates an
// instance once and builds its solvers without repeating the check, but a
// Subproblem built on its own must still refuse an invalid instance.
func TestNewSubproblemValidatesInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name    string
		breakIt func(*model.Instance)
	}{
		{"NaN bandwidth", func(in *model.Instance) { in.Bandwidth[1] = math.NaN() }},
		{"negative cache cap", func(in *model.Instance) { in.CacheCap[0] = -1 }},
		{"short demand row", func(in *model.Instance) { in.Demand[2] = in.Demand[2][:1] }},
		{"missing link row", func(in *model.Instance) { in.Links = in.Links[:1] }},
	} {
		bad := randomInstance(rng, 2, 4, 5)
		tc.breakIt(bad)
		if _, err := NewSubproblem(bad, 0, DefaultSubproblemConfig()); err == nil {
			t.Errorf("%s: NewSubproblem accepted the instance", tc.name)
		}
		if _, err := NewCoordinator(bad, DefaultConfig()); err == nil {
			t.Errorf("%s: NewCoordinator accepted the instance", tc.name)
		}
	}
	if _, err := NewSubproblem(nil, 0, DefaultSubproblemConfig()); err == nil {
		t.Error("nil instance: want error")
	}
}

func TestSolveShapeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := randomInstance(rng, 1, 3, 4)
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Solve(model.NewMat(2, inst.F)); err == nil {
		t.Error("wrong row count: want error")
	}
	if _, err := sub.Solve(model.NewMat(inst.U, 2)); err == nil {
		t.Error("wrong column count: want error")
	}
}

// checkResultFeasible verifies a sub-problem result against the full
// constraint system for SBS n, with the aggregate routing of the others.
func checkResultFeasible(t *testing.T, inst *model.Instance, n int, res *Result, yMinus model.Mat) {
	t.Helper()
	// Cache capacity.
	count := 0
	for _, cached := range res.Cache {
		if cached {
			count++
		}
	}
	if count > inst.CacheCap[n] {
		t.Fatalf("cache uses %d slots, capacity %d", count, inst.CacheCap[n])
	}
	var load float64
	for u := 0; u < inst.U; u++ {
		for f := 0; f < inst.F; f++ {
			v := res.Routing.At(u, f)
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("routing[%d][%d] = %v outside [0,1]", u, f, v)
			}
			if v > 1e-9 {
				if !res.Cache[f] {
					t.Fatalf("routing[%d][%d] = %v without cached content", u, f, v)
				}
				if !inst.Links[n][u] {
					t.Fatalf("routing[%d][%d] = %v without link", u, f, v)
				}
				if v+yMinus.At(u, f) > 1+1e-6 {
					t.Fatalf("routing[%d][%d] overserves: %v + %v > 1", u, f, v, yMinus.At(u, f))
				}
			}
			load += v * inst.Demand[u][f]
		}
	}
	if load > inst.Bandwidth[n]*(1+1e-9)+1e-9 {
		t.Fatalf("load %v exceeds bandwidth %v", load, inst.Bandwidth[n])
	}
}

func TestSolveFeasibleAndPositiveGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(rng, 1, 4, 6)
		sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
		if err != nil {
			t.Fatal(err)
		}
		yMinus := zeroYMinus(inst)
		res, err := sub.Solve(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		checkResultFeasible(t, inst, 0, res, yMinus)
		if res.Gain < 0 {
			t.Fatalf("gain = %v, want ≥ 0", res.Gain)
		}
		// Gain must agree with an independent evaluation.
		if got := evaluateUpload(inst, 0, res.Routing); math.Abs(got-res.Gain) > 1e-6*(1+res.Gain) {
			t.Fatalf("evaluateUpload = %v, Result.Gain = %v", got, res.Gain)
		}
	}
}

// TestSolveMatchesExact certifies the dual solver against exhaustive cache
// enumeration on small instances: the recovered primal must reach ≥ 99.9%
// of the exact gain (the greedy primal-recovery candidate makes this hold
// in practice; a tiny tolerance covers knapsack tie-breaks).
func TestSolveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	worst := 1.0
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 1, 3+rng.Intn(3), 4+rng.Intn(4))
		sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
		if err != nil {
			t.Fatal(err)
		}
		yMinus := zeroYMinus(inst)
		// Random partial pre-service from "other SBSs".
		for u := 0; u < inst.U; u++ {
			for f := 0; f < inst.F; f++ {
				if rng.Float64() < 0.3 {
					yMinus.Set(u, f, rng.Float64())
				}
			}
		}
		got, err := sub.Solve(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sub.SolveExact(yMinus)
		if err != nil {
			t.Fatal(err)
		}
		if want.Gain <= 0 {
			continue
		}
		ratio := got.Gain / want.Gain
		if ratio < worst {
			worst = ratio
		}
		if ratio < 0.999 {
			t.Errorf("trial %d: dual gain %v < exact gain %v (ratio %v)", trial, got.Gain, want.Gain, ratio)
		}
	}
	t.Logf("worst dual/exact gain ratio over trials: %v", worst)
}

func TestSolveExactRefusesLargeF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 1, 2, 21)
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.SolveExact(zeroYMinus(inst)); err == nil {
		t.Error("F=21: want error")
	}
}

func TestSolveRespectsResidualCaps(t *testing.T) {
	// One MU, one content, fully pre-served by others: nothing to route.
	inst := &model.Instance{
		N: 1, U: 1, F: 1,
		Demand:    [][]float64{{10}},
		Links:     [][]bool{{true}},
		CacheCap:  []int{1},
		Bandwidth: []float64{100},
		EdgeCost:  [][]float64{{1}},
		BSCost:    []float64{100},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	yMinus := model.NewMat(1, 1)
	yMinus.Set(0, 0, 1)
	res, err := sub.Solve(yMinus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Routing.At(0, 0) != 0 {
		t.Errorf("routing = %v, want 0 (demand already served)", res.Routing.At(0, 0))
	}
	// Half pre-served: can serve at most the other half.
	yMinus.Set(0, 0, 0.5)
	res, err = sub.Solve(yMinus)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Routing.At(0, 0)-0.5) > 1e-9 {
		t.Errorf("routing = %v, want 0.5", res.Routing.At(0, 0))
	}
}

func TestSolveBandwidthBinds(t *testing.T) {
	// Two MUs with different backhaul costs competing for tight bandwidth:
	// the high-d̂ MU must be preferred.
	inst := &model.Instance{
		N: 1, U: 2, F: 1,
		Demand:    [][]float64{{10}, {10}},
		Links:     [][]bool{{true, true}},
		CacheCap:  []int{1},
		Bandwidth: []float64{10},
		EdgeCost:  [][]float64{{1, 1}},
		BSCost:    []float64{200, 100},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Routing.At(0, 0)-1) > 1e-9 {
		t.Errorf("high-value MU served %v, want 1", res.Routing.At(0, 0))
	}
	if res.Routing.At(1, 0) > 1e-9 {
		t.Errorf("low-value MU served %v, want 0 (bandwidth exhausted)", res.Routing.At(1, 0))
	}
}

func TestSolveCacheCapacityBinds(t *testing.T) {
	// Three contents, capacity 1: only the most demanded content cached.
	inst := &model.Instance{
		N: 1, U: 1, F: 3,
		Demand:    [][]float64{{1, 5, 3}},
		Links:     [][]bool{{true}},
		CacheCap:  []int{1},
		Bandwidth: []float64{100},
		EdgeCost:  [][]float64{{1}},
		BSCost:    []float64{100},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cache[1] || res.Cache[0] || res.Cache[2] {
		t.Errorf("cache = %v, want only content 1", res.Cache)
	}
	if math.Abs(res.Routing.At(0, 1)-1) > 1e-9 {
		t.Errorf("routing[0][1] = %v, want 1", res.Routing.At(0, 1))
	}
}

func TestSolveZeroCapacitySBS(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst := randomInstance(rng, 1, 3, 4)
	inst.CacheCap[0] = 0
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain != 0 {
		t.Errorf("gain = %v, want 0 with no cache", res.Gain)
	}
}

func TestSolveNoLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 1, 3, 4)
	for u := range inst.Links[0] {
		inst.Links[0][u] = false
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Solve(zeroYMinus(inst))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain != 0 {
		t.Errorf("gain = %v, want 0 with no links", res.Gain)
	}
}

// Property: sub-problem solutions are always feasible, for random
// instances and random residual capacities.
func TestSolveFeasibilityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1, 2+rng.Intn(5), 2+rng.Intn(8))
		sub, err := NewSubproblem(inst, 0, SubproblemConfig{DualIters: 30})
		if err != nil {
			return false
		}
		yMinus := zeroYMinus(inst)
		for u := 0; u < inst.U; u++ {
			for f := 0; f < inst.F; f++ {
				yMinus.Set(u, f, rng.Float64()*1.2) // may exceed 1: cap must clamp
			}
		}
		res, err := sub.Solve(yMinus)
		if err != nil {
			return false
		}
		count := 0
		for _, cached := range res.Cache {
			if cached {
				count++
			}
		}
		if count > inst.CacheCap[0] {
			return false
		}
		var load float64
		for u := 0; u < inst.U; u++ {
			for f := 0; f < inst.F; f++ {
				v := res.Routing.At(u, f)
				if v < 0 || v > 1+1e-9 {
					return false
				}
				if v > 1e-9 && (!res.Cache[f] || !inst.Links[0][u]) {
					return false
				}
				if v > clamp01(1-yMinus.At(u, f))+1e-9 {
					return false
				}
				load += v * inst.Demand[u][f]
			}
		}
		return load <= inst.Bandwidth[0]*(1+1e-9)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRoutingGivenCachePrefersDensity(t *testing.T) {
	inst := &model.Instance{
		N: 1, U: 2, F: 2,
		Demand:    [][]float64{{4, 0}, {0, 4}},
		Links:     [][]bool{{true, true}},
		CacheCap:  []int{2},
		Bandwidth: []float64{4},
		EdgeCost:  [][]float64{{1, 1}},
		BSCost:    []float64{50, 150},
	}
	sub, err := NewSubproblem(inst, 0, SubproblemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sub.useCaps([]float64{1, 1})
	y, gain := sub.routingGivenCache([]bool{true, true})
	// Bandwidth 4 fits exactly one full demand; MU1 (density 149) wins.
	served0, served1 := y.At(0, 0), y.At(1, 1)
	if math.Abs(served1-1) > 1e-9 || served0 > 1e-9 {
		t.Errorf("served = (%v, %v), want (0, 1)", served0, served1)
	}
	if math.Abs(gain-149*4) > 1e-6 {
		t.Errorf("gain = %v, want %v", gain, 149.0*4)
	}
}

// TestDensityOrderMatchesItemSort holds NewSubproblem's user-level density
// order to the item-level definition, every item index sorted stably by
// density descending, and its per-content lists to that order: content
// f's list holds the positions of f's items, ascending. The instances mix
// users with equal densities, users with no items and users whose density
// is zero or negative.
func TestDensityOrderMatchesItemSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 3, 2+rng.Intn(12), 1+rng.Intn(8))
		for u := 0; u < inst.U; u++ {
			switch rng.Intn(5) {
			case 0: // no items
				for f := range inst.Demand[u] {
					inst.Demand[u][f] = 0
				}
			case 1: // zero or negative density at every SBS
				inst.BSCost[u] = float64(rng.Intn(2))
			}
			// A coarse grid of costs makes equal densities common.
			inst.BSCost[u] = math.Floor(inst.BSCost[u] / 25)
			for n := 0; n < inst.N; n++ {
				inst.EdgeCost[n][u] = float64(rng.Intn(3))
			}
		}
		for n := 0; n < inst.N; n++ {
			sub, err := NewSubproblem(inst, n, DefaultSubproblemConfig())
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int32, len(sub.items))
			for i := range want {
				want[i] = int32(i)
			}
			density := func(i int32) float64 {
				u := sub.items[i].u
				return inst.BSCost[u] - inst.EdgeCost[n][u]
			}
			sort.SliceStable(want, func(a, b int) bool { return density(want[a]) > density(want[b]) })
			if len(sub.posItem) != len(want) {
				t.Fatalf("trial %d SBS %d: order has %d items, want %d", trial, n, len(sub.posItem), len(want))
			}
			for k := range want {
				if sub.posItem[k] != want[k] {
					t.Fatalf("trial %d SBS %d: order %v, item-level sort %v", trial, n, sub.posItem, want)
				}
			}
			var lists []int32
			for f := 0; f < inst.F; f++ {
				lists = lists[:0]
				for p, i := range sub.posItem {
					if int(sub.items[i].f) == f {
						lists = append(lists, int32(p))
					}
				}
				got := sub.contentPos[sub.contentStart[f]:sub.contentStart[f+1]]
				if !slices.Equal(got, lists) {
					t.Fatalf("trial %d SBS %d: content %d list %v, want %v", trial, n, f, got, lists)
				}
			}
			if len(sub.items) != cap(sub.items) {
				t.Fatalf("trial %d SBS %d: %d items in a buffer of %d", trial, n, len(sub.items), cap(sub.items))
			}
		}
	}
}

// evaluateUpload computes the objective contribution of a routing block for
// SBS n against the instance: the gain Σ (d̂_u − d_nu)·λ_uf·y_nuf over
// linked pairs. It is the independent oracle for Result.Gain.
func evaluateUpload(inst *model.Instance, n int, routing model.Mat) float64 {
	var gain float64
	for u := 0; u < inst.U; u++ {
		if !inst.Links[n][u] {
			continue
		}
		density := inst.BSCost[u] - inst.EdgeCost[n][u]
		row := routing.Row(u)
		demand := inst.Demand[u]
		for f := range row {
			gain += density * demand[f] * row[f]
		}
	}
	return gain
}
