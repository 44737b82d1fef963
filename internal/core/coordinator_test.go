package core

import (
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/dp"
	"edgecache/internal/model"
)

func TestCoordinatorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := randomInstance(rng, 2, 4, 5)
	bad := inst.Clone()
	bad.BSCost = bad.BSCost[:1]
	if _, err := NewCoordinator(bad, DefaultConfig()); err == nil {
		t.Error("invalid instance: want error")
	}
	cfg := DefaultConfig()
	cfg.Privacy = &PrivacyConfig{Epsilon: 0, Delta: 0.5, Noise: NewNoiseSource(1)}
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("epsilon=0: want error")
	}
	cfg.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 1, Noise: NewNoiseSource(1)}
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("delta=1: want error")
	}
	cfg.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.5}
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("no noise source: want error")
	}
	// Non-finite settings must fail at construction, not at the first
	// Perturb deep inside a sweep.
	for name, p := range map[string]PrivacyConfig{
		"epsilon=NaN": {Epsilon: math.NaN(), Delta: 0.5},
		"epsilon=Inf": {Epsilon: math.Inf(1), Delta: 0.5},
		"delta=NaN":   {Epsilon: 1, Delta: math.NaN()},
	} {
		p.Noise = NewNoiseSource(1)
		cfg.Privacy = &p
		if _, err := NewCoordinator(inst, cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
		if _, err := NewLPPM(p); err == nil {
			t.Errorf("%s: NewLPPM accepted it", name)
		}
	}
}

func TestCoordinatorConvergesAndIsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(rng, 3, 6, 8)
		coord, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("trial %d: did not converge in %d sweeps", trial, res.Sweeps)
		}
		if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
			t.Fatalf("trial %d: infeasible solution:\n%s", trial, model.FormatViolations(vs))
		}
		// Cost must beat the no-cache worst case whenever any gain exists.
		if res.Solution.Cost.Total > inst.MaxCost()+1e-9 {
			t.Errorf("trial %d: cost %v exceeds MaxCost %v", trial, res.Solution.Cost.Total, inst.MaxCost())
		}
		// The recomputed cost of the returned policy must match.
		recomputed := model.TotalServingCost(inst, res.Solution.Routing)
		if math.Abs(recomputed.Total-res.Solution.Cost.Total) > 1e-6 {
			t.Errorf("trial %d: cost mismatch %v vs %v", trial, recomputed.Total, res.Solution.Cost.Total)
		}
	}
}

func TestCoordinatorMonotoneWithoutNoise(t *testing.T) {
	// Theorem 2/3's core argument: each Gauss-Seidel phase re-optimizes one
	// block, so without noise the sweep-end cost never increases.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(rng, 3, 5, 7)
		coord, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.History); i++ {
			if res.History[i] > res.History[i-1]+1e-6 {
				t.Fatalf("trial %d: cost increased between sweeps: %v", trial, res.History)
			}
		}
	}
}

func TestCoordinatorHistoryMatchesSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := randomInstance(rng, 2, 4, 5)
	coord, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Sweeps {
		t.Errorf("history length %d, sweeps %d", len(res.History), res.Sweeps)
	}
	if res.History[len(res.History)-1] != res.Solution.Cost.Total {
		t.Errorf("final history %v != solution cost %v",
			res.History[len(res.History)-1], res.Solution.Cost.Total)
	}
}

func TestCoordinatorSweepBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 3, 5, 7)
	cfg := DefaultConfig()
	cfg.MaxSweeps = 1
	cfg.Gamma = 1e-12
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps != 1 || res.Converged {
		t.Errorf("sweeps=%d converged=%v, want 1 sweep and no convergence flag", res.Sweeps, res.Converged)
	}
}

func TestLPPMIncreasesCostButStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		inst := randomInstance(rng, 3, 5, 7)

		coord, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		clean, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}

		cfg := DefaultConfig()
		cfg.Privacy = &PrivacyConfig{
			Epsilon: 0.1,
			Delta:   0.5,
			Noise:   NewNoiseSource(int64(trial)),
		}
		noisyCoord, err := NewCoordinator(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := noisyCoord.Run()
		if err != nil {
			t.Fatal(err)
		}

		if vs := model.CheckFeasibility(inst, noisy.Solution.Caching, noisy.Solution.Routing); len(vs) != 0 {
			t.Fatalf("trial %d: LPPM solution infeasible:\n%s", trial, model.FormatViolations(vs))
		}
		// Subtracting noise can only reduce edge service, so the noisy cost
		// must be at least the clean cost (up to numeric slack).
		if noisy.Solution.Cost.Total < clean.Solution.Cost.Total-1e-6 {
			t.Errorf("trial %d: noisy cost %v below clean cost %v",
				trial, noisy.Solution.Cost.Total, clean.Solution.Cost.Total)
		}
	}
}

func TestLPPMCostShrinksWithEpsilon(t *testing.T) {
	// Larger ε ⇒ smaller noise ⇒ cost closer to the non-private optimum
	// (the paper's Fig. 3 trend). Averaged over seeds to tame randomness.
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 3, 6, 8)

	coord, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}

	avgCost := func(eps float64) float64 {
		var total float64
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			cfg := DefaultConfig()
			cfg.Privacy = &PrivacyConfig{Epsilon: eps, Delta: 0.5, Noise: NewNoiseSource(100 + s)}
			c, err := NewCoordinator(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			total += r.Solution.Cost.Total
		}
		return total / seeds
	}

	lowEps := avgCost(0.01)
	highEps := avgCost(100)
	if lowEps < highEps-1e-9 {
		t.Errorf("cost at ε=0.01 (%v) should exceed cost at ε=100 (%v)", lowEps, highEps)
	}
	// At ε=100 the noise is negligible: within 1% of the clean optimum.
	if rel := (highEps - clean.Solution.Cost.Total) / clean.Solution.Cost.Total; rel > 0.01 {
		t.Errorf("ε=100 cost is %.2f%% above optimum, want < 1%%", rel*100)
	}
}

func TestLPPMAccountant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := randomInstance(rng, 3, 5, 6)
	var acct dp.Accountant
	cfg := DefaultConfig()
	cfg.Privacy = &PrivacyConfig{
		Epsilon:    0.5,
		Delta:      0.4,
		Noise:      NewNoiseSource(9),
		Accountant: &acct,
	}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantSpends := res.Sweeps * inst.N
	if got := acct.Count(); got != wantSpends {
		t.Errorf("accountant recorded %d spends, want sweeps·N = %d", got, wantSpends)
	}
	if got, want := acct.SequentialEpsilon(), 0.5*float64(wantSpends); math.Abs(got-want) > 1e-9 {
		t.Errorf("sequential ε = %v, want %v", got, want)
	}
	perLabel := acct.ByLabel()
	if len(perLabel) != inst.N {
		t.Errorf("labels = %d, want one per SBS (%d)", len(perLabel), inst.N)
	}
}

func TestLPPMDeltaZeroMatchesClean(t *testing.T) {
	// δ=0 draws zero noise, so the run must match the non-private one.
	rng := rand.New(rand.NewSource(10))
	inst := randomInstance(rng, 2, 4, 5)
	coord, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Privacy = &PrivacyConfig{Epsilon: 0.1, Delta: 0, Noise: NewNoiseSource(11)}
	noisyCoord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := noisyCoord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(noisy.Solution.Cost.Total-clean.Solution.Cost.Total) > 1e-9 {
		t.Errorf("δ=0 cost %v differs from clean cost %v",
			noisy.Solution.Cost.Total, clean.Solution.Cost.Total)
	}
}

func TestRestartsNeverWorseThanFixedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	improvedSomewhere := false
	for trial := 0; trial < 12; trial++ {
		inst := randomInstance(rng, 3, 6, 6)
		fixed, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fres, err := fixed.Run()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Restarts = 4
		cfg.RestartSeed = int64(trial)
		multi, err := NewCoordinator(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mres, err := multi.Run()
		if err != nil {
			t.Fatal(err)
		}
		if mres.Solution.Cost.Total > fres.Solution.Cost.Total+1e-9 {
			t.Errorf("trial %d: restarts cost %v exceeds fixed-order cost %v",
				trial, mres.Solution.Cost.Total, fres.Solution.Cost.Total)
		}
		if mres.Solution.Cost.Total < fres.Solution.Cost.Total-1e-9 {
			improvedSomewhere = true
		}
		if vs := model.CheckFeasibility(inst, mres.Solution.Caching, mres.Solution.Routing); len(vs) != 0 {
			t.Fatalf("trial %d: restart solution infeasible:\n%s", trial, model.FormatViolations(vs))
		}
	}
	t.Logf("restarts improved at least one instance: %v", improvedSomewhere)
}

func TestCoordinatorDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst := randomInstance(rng, 3, 5, 6)
	run := func(seed int64) float64 {
		cfg := DefaultConfig()
		cfg.Privacy = &PrivacyConfig{Epsilon: 0.1, Delta: 0.5, Noise: NewNoiseSource(seed)}
		coord, err := NewCoordinator(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Solution.Cost.Total
	}
	if run(42) != run(42) {
		t.Error("same seed produced different costs")
	}
}
