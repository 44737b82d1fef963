package core

import (
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

func TestJacobiFeasibleAndConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(rng, 3, 6, 8)
		coord, err := NewCoordinator(inst, jacobiCfg())
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
			t.Fatalf("trial %d: Jacobi solution infeasible:\n%s", trial, model.FormatViolations(vs))
		}
		if !res.Converged {
			t.Errorf("trial %d: Jacobi did not converge in %d rounds", trial, res.Sweeps)
		}
		if res.Solution.Cost.Total > inst.MaxCost()+1e-9 {
			t.Errorf("trial %d: cost %v above ceiling", trial, res.Solution.Cost.Total)
		}
	}
}

func TestJacobiComparableToSequential(t *testing.T) {
	// Jacobi converges to costs of similar quality (its BS-side repair can
	// land in a different equilibrium, better or worse): guard a broad
	// window to catch regressions.
	rng := rand.New(rand.NewSource(22))
	var seq, jac float64
	for trial := 0; trial < 6; trial++ {
		inst := randomInstance(rng, 3, 6, 8)
		coord, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		jcoord, err := NewCoordinator(inst, jacobiCfg())
		if err != nil {
			t.Fatal(err)
		}
		j, err := jcoord.Run()
		if err != nil {
			t.Fatal(err)
		}
		seq += s.Solution.Cost.Total
		jac += j.Solution.Cost.Total
	}
	if jac > seq*1.25 {
		t.Errorf("Jacobi aggregate cost %v far above sequential %v", jac, seq)
	}
	if jac < seq*0.75 {
		t.Errorf("Jacobi aggregate cost %v suspiciously below sequential %v", jac, seq)
	}
}

func TestJacobiWithPrivacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := randomInstance(rng, 3, 5, 6)
	cfg := jacobiCfg()
	cfg.MaxSweeps = 10
	cfg.Privacy = &PrivacyConfig{Epsilon: 0.1, Delta: 0.5, Rng: rand.New(rand.NewSource(24))}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible:\n%s", model.FormatViolations(vs))
	}
}

func TestRepairOverserve(t *testing.T) {
	inst := &model.Instance{
		N: 2, U: 1, F: 1,
		Demand:    [][]float64{{10}},
		Links:     [][]bool{{true}, {true}},
		CacheCap:  []int{1, 1},
		Bandwidth: []float64{100, 100},
		EdgeCost:  [][]float64{{1}, {1}},
		BSCost:    []float64{100},
	}
	y := model.NewRoutingPolicy(inst)
	y.Set(0, 0, 0, 0.8)
	y.Set(1, 0, 0, 0.6) // aggregate 1.4
	repairOverserve(inst, y)
	agg := y.Aggregate(inst)
	if agg.At(0, 0) > 1+1e-9 {
		t.Fatalf("aggregate after repair = %v", agg.At(0, 0))
	}
	// Proportional: 0.8/1.4 and 0.6/1.4.
	if diff := y.At(0, 0, 0) - 0.8/1.4; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("SBS0 share = %v, want %v", y.At(0, 0, 0), 0.8/1.4)
	}
	// Already-feasible entries must be untouched.
	y2 := model.NewRoutingPolicy(inst)
	y2.Set(0, 0, 0, 0.3)
	repairOverserve(inst, y2)
	if y2.At(0, 0, 0) != 0.3 {
		t.Error("repair modified a feasible entry")
	}
}

func TestNoiseMechanisms(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	inst := randomInstance(rng, 2, 4, 5)
	for _, mech := range []NoiseMechanism{MechanismLaplace, MechanismGaussian, MechanismUniform} {
		cfg := DefaultConfig()
		cfg.MaxSweeps = 8
		cfg.Privacy = &PrivacyConfig{
			Epsilon:   0.5,
			Delta:     0.5,
			Rng:       rand.New(rand.NewSource(26)),
			Mechanism: mech,
		}
		coord, err := NewCoordinator(inst, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		res, err := coord.Run()
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
			t.Fatalf("%v infeasible:\n%s", mech, model.FormatViolations(vs))
		}
	}
}

func TestNoiseMechanismValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	// Gaussian needs ε in (0,1).
	if _, err := NewLPPM(PrivacyConfig{
		Epsilon: 5, Delta: 0.5, Rng: rng, Mechanism: MechanismGaussian,
	}); err == nil {
		t.Error("gaussian with ε=5: want error")
	}
	if _, err := NewLPPM(PrivacyConfig{
		Epsilon: 0.5, Delta: 0.5, Rng: rng, Mechanism: MechanismGaussian, DPDelta: 2,
	}); err == nil {
		t.Error("DPDelta=2: want error")
	}
	if _, err := NewLPPM(PrivacyConfig{
		Epsilon: 0.5, Delta: 0.5, Rng: rng, Mechanism: NoiseMechanism(9),
	}); err == nil {
		t.Error("unknown mechanism: want error")
	}
	l, err := NewLPPM(PrivacyConfig{
		Epsilon: 0.5, Delta: 0.5, Rng: rng, Mechanism: MechanismGaussian, DPDelta: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Sigma() <= 0 || l.Mechanism() != MechanismGaussian {
		t.Errorf("sigma=%v mechanism=%v", l.Sigma(), l.Mechanism())
	}
}

func TestNoiseMechanismStrings(t *testing.T) {
	if MechanismLaplace.String() != "laplace" || MechanismGaussian.String() != "gaussian" ||
		MechanismUniform.String() != "uniform" {
		t.Error("mechanism names wrong")
	}
	if NoiseMechanism(7).String() != "NoiseMechanism(7)" {
		t.Error("unknown mechanism should format numerically")
	}
}

func TestPerturbKeepsZeroesAndRange(t *testing.T) {
	for _, mech := range []NoiseMechanism{MechanismLaplace, MechanismGaussian, MechanismUniform} {
		eps := 0.5
		l, err := NewLPPM(PrivacyConfig{
			Epsilon: eps, Delta: 0.4, Rng: rand.New(rand.NewSource(28)), Mechanism: mech,
		})
		if err != nil {
			t.Fatal(err)
		}
		routing, err := model.MatFromRows([][]float64{{0, 0.5, 1}, {0.25, 0, 0.75}})
		if err != nil {
			t.Fatal(err)
		}
		noised, err := l.Perturb("x", routing)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < routing.U; u++ {
			for f := 0; f < routing.F; f++ {
				v := routing.At(u, f)
				got := noised.At(u, f)
				if v == 0 && got != 0 {
					t.Fatalf("%v: zero entry perturbed to %v", mech, got)
				}
				if got > v+1e-12 {
					t.Fatalf("%v: noise added instead of subtracted (%v → %v)", mech, v, got)
				}
				if got < v*(1-0.4)-1e-12 {
					t.Fatalf("%v: noise exceeded δ·y (%v → %v)", mech, v, got)
				}
			}
		}
	}
}

// repairOverserve rescales routing proportionally wherever the aggregate
// Σ_n y_nuf·l_nu exceeds one, restoring constraint (4). Scaling down never
// violates bandwidth, box or cache constraints.
//
// The engines repair through AggregateTracker.RepairOverserveRows, which
// additionally keeps the running aggregate in sync; this standalone form
// is the reference definition the tests check the tracker path against.
func repairOverserve(inst *model.Instance, y *model.RoutingPolicy) {
	agg := y.Aggregate(inst)
	for u := 0; u < inst.U; u++ {
		row := agg.Row(u)
		for f := range row {
			if row[f] <= 1+1e-12 {
				continue
			}
			factor := 1 / row[f]
			for n := 0; n < inst.N; n++ {
				if inst.Links[n][u] {
					y.Set(n, u, f, y.At(n, u, f)*factor)
				}
			}
		}
	}
}
