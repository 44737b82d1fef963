package attack

import (
	"math/rand"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/model"
)

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
			inst.EdgeCost[i][j] = 1
		}
		inst.CacheCap[i] = 1 + rng.Intn(f/2+1)
		inst.Bandwidth[i] = 10 + rng.Float64()*40
	}
	return inst
}

// TestReconstructionExactWithoutLPPM is the headline privacy demonstration:
// an observer of the broadcast channel recovers every SBS's full routing
// policy exactly when no privacy mechanism runs.
func TestReconstructionExactWithoutLPPM(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		inst := randomInstance(rng, 3, 6, 8)
		_, obs, truth, err := RunWithObserver(inst, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sweeps := obs.CompleteSweeps()
		if len(sweeps) == 0 {
			t.Fatal("no complete sweeps captured")
		}
		last := sweeps[len(sweeps)-1]
		recovered, err := obs.Reconstruct(last)
		if err != nil {
			t.Fatal(err)
		}
		truthPolicy, err := truth.Truth(last)
		if err != nil {
			t.Fatal(err)
		}
		errRate, err := ReconstructionError(inst, truthPolicy, recovered)
		if err != nil {
			t.Fatal(err)
		}
		if errRate > 1e-9 {
			t.Errorf("trial %d: reconstruction error %v without LPPM, want exact recovery", trial, errRate)
		}
	}
}

// TestLPPMDegradesReconstruction: with LPPM on, the recovered policies
// move away from the true ones, and more noise (smaller ε) hurts the
// attacker more.
func TestLPPMDegradesReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	inst := randomInstance(rng, 3, 6, 8)

	measure := func(eps float64) float64 {
		cfg := core.DefaultConfig()
		cfg.MaxSweeps = 8
		cfg.Privacy = &core.PrivacyConfig{
			Epsilon: eps, Delta: 0.5, Noise: core.NewNoiseSource(63),
		}
		_, obs, truth, err := RunWithObserver(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweeps := obs.CompleteSweeps()
		last := sweeps[len(sweeps)-1]
		recovered, err := obs.Reconstruct(last)
		if err != nil {
			t.Fatal(err)
		}
		truthPolicy, err := truth.Truth(last)
		if err != nil {
			t.Fatal(err)
		}
		e, err := ReconstructionError(inst, truthPolicy, recovered)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	tight := measure(0.01)
	loose := measure(100)
	if tight < 0.02 {
		t.Errorf("reconstruction error at ε=0.01 is %v — LPPM provided no protection", tight)
	}
	if tight <= loose {
		t.Errorf("error at ε=0.01 (%v) should exceed error at ε=100 (%v)", tight, loose)
	}
}

// TestFirstSweepReconstruction: the leak is immediate — the attacker does
// not need to wait for convergence to recover SBSs 0..N−2 exactly.
func TestFirstSweepReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	inst := randomInstance(rng, 3, 6, 8)
	_, obs, truth, err := RunWithObserver(inst, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := obs.ReconstructFirstSweep()
	if err != nil {
		t.Fatal(err)
	}
	truthPolicy, err := truth.Truth(0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < inst.N-1; n++ {
		for u := 0; u < inst.U; u++ {
			if !inst.Links[n][u] {
				continue
			}
			for f := 0; f < inst.F; f++ {
				diff := truthPolicy.At(n, u, f) - recovered[n][u][f]
				if diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("SBS %d (%d,%d): recovered %v, truth %v",
						n, u, f, recovered[n][u][f], truthPolicy.At(n, u, f))
				}
			}
		}
	}
	// Single-SBS and incomplete observers fail cleanly.
	single := NewSweepObserver(1)
	single.Tap(0, 0, [][]float64{{0}})
	if _, err := single.ReconstructFirstSweep(); err == nil {
		t.Error("single SBS: want error")
	}
	empty := NewSweepObserver(2)
	if _, err := empty.ReconstructFirstSweep(); err == nil {
		t.Error("no captures: want error")
	}
}

func TestObserverBookkeeping(t *testing.T) {
	obs := NewSweepObserver(2)
	if _, err := obs.Reconstruct(0); err == nil {
		t.Error("empty observer: want error")
	}
	obs.Tap(0, 0, [][]float64{{1}})
	if got := obs.CompleteSweeps(); len(got) != 0 {
		t.Errorf("incomplete sweep listed: %v", got)
	}
	obs.Tap(0, 1, [][]float64{{2}})
	if got := obs.CompleteSweeps(); len(got) != 1 || got[0] != 0 {
		t.Errorf("CompleteSweeps = %v, want [0]", got)
	}
	// N=1 observer cannot reconstruct.
	single := NewSweepObserver(1)
	single.Tap(0, 0, [][]float64{{0}})
	if _, err := single.Reconstruct(0); err == nil {
		t.Error("single-SBS reconstruction: want error")
	}
	// Out-of-order phases are tolerated via the nil guard.
	ooo := NewSweepObserver(2)
	ooo.Tap(0, 1, [][]float64{{1}})
	if _, err := ooo.Reconstruct(0); err == nil {
		t.Error("sweep with missing phase: want error")
	}
}

func TestReconstructKnownValues(t *testing.T) {
	// Hand-built converged sweep: y0 = [[0.2]], y1 = [[0.5]], y2 = [[0.3]].
	// B_n = Y − y_n with Y = 1.0.
	obs := NewSweepObserver(3)
	obs.Tap(0, 0, [][]float64{{0.8}})
	obs.Tap(0, 1, [][]float64{{0.5}})
	obs.Tap(0, 2, [][]float64{{0.7}})
	recovered, err := obs.Reconstruct(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 0.5, 0.3}
	for n, w := range want {
		if diff := recovered[n][0][0] - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("recovered[%d] = %v, want %v", n, recovered[n][0][0], w)
		}
	}
}

func TestReconstructionErrorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	inst := randomInstance(rng, 2, 3, 4)
	y := model.NewRoutingPolicy(inst)
	if _, err := ReconstructionError(inst, y, make([][][]float64, 1)); err == nil {
		t.Error("wrong SBS count: want error")
	}
	// Zero-mass truth with zero-recovery is a perfect (trivial) match.
	zero := make([][][]float64, inst.N)
	for n := range zero {
		zero[n] = inst.NewUFMat().Rows()
	}
	e, err := ReconstructionError(inst, y, zero)
	if err != nil || e != 0 {
		t.Errorf("zero case: e=%v err=%v", e, err)
	}
}

func TestRunWithObserverRejectsRestarts(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	inst := randomInstance(rng, 2, 3, 4)
	cfg := core.DefaultConfig()
	cfg.Restarts = 2
	if _, _, _, err := RunWithObserver(inst, cfg); err == nil {
		t.Error("restarts: want error")
	}
}
