package core

import (
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

func TestMultiBSSingleRegionMatchesAlgorithm1(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		inst := randomInstance(rng, 3, 6, 7)
		coord, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunMultiBS(inst, MultiBSConfig{Regions: [][]int{{0, 1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Solution.Cost.Total-want.Solution.Cost.Total) > 1e-9 {
			t.Errorf("trial %d: single-region multi-BS cost %v != Algorithm 1 cost %v",
				trial, got.Solution.Cost.Total, want.Solution.Cost.Total)
		}
		if got.Sweeps != want.Sweeps {
			t.Errorf("trial %d: rounds %d != sweeps %d", trial, got.Sweeps, want.Sweeps)
		}
	}
}

func TestMultiBSFeasibleAndConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		inst := randomInstance(rng, 4, 7, 8)
		res, err := RunMultiBS(inst, MultiBSConfig{Regions: [][]int{{0, 1}, {2, 3}}})
		if err != nil {
			t.Fatal(err)
		}
		if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
			t.Fatalf("trial %d: infeasible:\n%s", trial, model.FormatViolations(vs))
		}
		if !res.Converged {
			t.Errorf("trial %d: did not converge in %d rounds", trial, res.Sweeps)
		}
	}
}

func TestMultiBSComparableToSingleBS(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var single, multi float64
	for trial := 0; trial < 6; trial++ {
		inst := randomInstance(rng, 4, 7, 8)
		coord, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunMultiBS(inst, MultiBSConfig{Regions: [][]int{{0, 1}, {2, 3}}})
		if err != nil {
			t.Fatal(err)
		}
		single += s.Solution.Cost.Total
		multi += m.Solution.Cost.Total
	}
	// Splitting coordination across two BSs loses only the cross-region
	// staleness; aggregate costs must stay in the same ballpark.
	if multi > single*1.25 || multi < single*0.75 {
		t.Errorf("multi-BS aggregate cost %v vs single-BS %v outside ±25%%", multi, single)
	}
}

func TestMultiBSWithPrivacy(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	inst := randomInstance(rng, 4, 6, 7)
	res, err := RunMultiBS(inst, MultiBSConfig{
		Regions:   [][]int{{0, 2}, {1, 3}},
		MaxRounds: 8,
		Privacy:   &PrivacyConfig{Epsilon: 0.2, Delta: 0.5, Noise: NewNoiseSource(45)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible:\n%s", model.FormatViolations(vs))
	}
}

func TestMultiBSValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	inst := randomInstance(rng, 3, 4, 5)
	cases := []MultiBSConfig{
		{},                                  // no regions
		{Regions: [][]int{{0, 1}}},          // missing SBS 2
		{Regions: [][]int{{0, 1, 2}, {}}},   // empty region
		{Regions: [][]int{{0, 1, 2, 3}}},    // out of range
		{Regions: [][]int{{0, 1}, {1, 2}}},  // duplicate
		{Regions: [][]int{{0, 1}, {-1, 2}}}, // negative
	}
	for i, cfg := range cases {
		if _, err := RunMultiBS(inst, cfg); err == nil {
			t.Errorf("case %d: want error for %+v", i, cfg.Regions)
		}
	}
	if _, err := RunMultiBS(&model.Instance{N: 0}, MultiBSConfig{Regions: [][]int{{0}}}); err == nil {
		t.Error("invalid instance: want error")
	}
	if _, err := RunMultiBS(inst, MultiBSConfig{
		Regions: [][]int{{0, 1, 2}},
		Privacy: &PrivacyConfig{Epsilon: -1},
	}); err == nil {
		t.Error("bad privacy: want error")
	}
}
