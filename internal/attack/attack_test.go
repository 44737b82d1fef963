package attack

import (
	"math"
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

// bareObserver is an observer of n SBSs for hand-built broadcasts; its
// instance carries only N, so it reconstructs but cannot recompute truth.
func bareObserver(n int) *SweepObserver {
	return NewSweepObserver(&model.Instance{N: n}, core.SubproblemConfig{})
}

// cell is a hand-built 1×1 broadcast.
func cell(v float64) model.Mat {
	m := model.NewMat(1, 1)
	m.Set(0, 0, v)
	return m
}

// TestReconstructionExactWithoutLPPM is the headline privacy demonstration:
// an observer of the broadcast channel recovers every SBS's full routing
// policy exactly when no privacy mechanism runs.
func TestReconstructionExactWithoutLPPM(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		inst := randomInstance(rng, 3, 6, 8)
		_, obs, err := RunWithObserver(inst, core.DefaultConfig())
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
		truthPolicy, err := obs.Truth(last)
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
		_, obs, err := RunWithObserver(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweeps := obs.CompleteSweeps()
		last := sweeps[len(sweeps)-1]
		recovered, err := obs.Reconstruct(last)
		if err != nil {
			t.Fatal(err)
		}
		truthPolicy, err := obs.Truth(last)
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
	_, obs, err := RunWithObserver(inst, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := obs.ReconstructFirstSweep()
	if err != nil {
		t.Fatal(err)
	}
	truthPolicy, err := obs.Truth(0)
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
	single := bareObserver(1)
	single.Tap(0, 0, cell(0))
	if _, err := single.ReconstructFirstSweep(); err == nil {
		t.Error("single SBS: want error")
	}
	empty := bareObserver(2)
	if _, err := empty.ReconstructFirstSweep(); err == nil {
		t.Error("no captures: want error")
	}
}

// TestTruthMatchesIndependentReplay checks the recomputed ground truth
// against a replay that records it directly: a test-local phase answer
// with its own sub-problems and an LPPM on the same noise seed runs the
// same trajectory through core.Driver and records every phase's clean
// routing. obs.Truth must equal those recordings bit for bit in every
// sweep, sweep 0 included, with LPPM off and on.
func TestTruthMatchesIndependentReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 4; trial++ {
		inst := randomInstance(rng, 2+trial, 6, 8)
		for _, private := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Gamma = 1e-6
			cfg.MaxSweeps = 12
			newPrivacy := func() *core.PrivacyConfig {
				return &core.PrivacyConfig{Epsilon: 1, Delta: 0.5, Noise: core.NewNoiseSource(68)}
			}
			if private {
				cfg.Privacy = newPrivacy()
			}
			res, obs, err := RunWithObserver(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}

			subs := make([]*core.Subproblem, inst.N)
			for n := range subs {
				if subs[n], err = core.NewSubproblem(inst, n, cfg.Sub); err != nil {
					t.Fatal(err)
				}
			}
			var lppm *core.LPPM
			if private {
				if lppm, err = core.NewLPPM(*newPrivacy()); err != nil {
					t.Fatal(err)
				}
			}
			var clean []*model.RoutingPolicy // sweep → recorded clean routing
			answer := func(_ *core.SweepState, sweep, n int, yMinus model.Mat) ([]bool, model.Mat, bool, error) {
				r, err := subs[n].Solve(yMinus)
				if err != nil {
					return nil, model.Mat{}, false, err
				}
				if sweep == len(clean) {
					clean = append(clean, model.NewRoutingPolicy(inst))
				}
				clean[sweep].SetSBS(n, r.Routing)
				upload := r.Routing
				if lppm != nil {
					if upload, err = lppm.PerturbSBS(n, r.Routing); err != nil {
						return nil, model.Mat{}, false, err
					}
				}
				return r.Cache, upload, true, nil
			}
			order := make([]int, inst.N)
			for n := range order {
				order[n] = n
			}
			d := &core.Driver{Inst: inst, Gamma: cfg.Gamma, MaxSweeps: cfg.MaxSweeps}
			ref, err := d.Run(core.NewGaussSeidelEngine(inst, answer), core.NewSweepState(inst, order))
			if err != nil {
				t.Fatal(err)
			}

			sweeps := obs.CompleteSweeps()
			if ref.Sweeps != res.Sweeps || len(sweeps) != res.Sweeps || len(clean) != res.Sweeps {
				t.Fatalf("trial %d private=%v: replay ran %d sweeps, run %d, observer captured %v",
					trial, private, ref.Sweeps, res.Sweeps, sweeps)
			}
			for _, s := range sweeps {
				truth, err := obs.Truth(s)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range truth.T.Data {
					if w := clean[s].T.Data[i]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("trial %d private=%v sweep %d: truth[%d] = %v, replay recorded %v",
							trial, private, s, i, v, w)
					}
				}
			}
		}
	}
}

func TestObserverBookkeeping(t *testing.T) {
	obs := bareObserver(2)
	if _, err := obs.Reconstruct(0); err == nil {
		t.Error("empty observer: want error")
	}
	obs.Tap(0, 0, cell(1))
	if got := obs.CompleteSweeps(); len(got) != 0 {
		t.Errorf("incomplete sweep listed: %v", got)
	}
	obs.Tap(0, 1, cell(2))
	if got := obs.CompleteSweeps(); len(got) != 1 || got[0] != 0 {
		t.Errorf("CompleteSweeps = %v, want [0]", got)
	}
	// N=1 observer cannot reconstruct.
	single := bareObserver(1)
	single.Tap(0, 0, cell(0))
	if _, err := single.Reconstruct(0); err == nil {
		t.Error("single-SBS reconstruction: want error")
	}
	// Out-of-order phases are tolerated via the nil guard.
	ooo := bareObserver(2)
	ooo.Tap(0, 1, cell(1))
	if _, err := ooo.Reconstruct(0); err == nil {
		t.Error("sweep with missing phase: want error")
	}
}

func TestReconstructKnownValues(t *testing.T) {
	// Hand-built converged sweep: y0 = [[0.2]], y1 = [[0.5]], y2 = [[0.3]].
	// B_n = Y − y_n with Y = 1.0.
	obs := bareObserver(3)
	obs.Tap(0, 0, cell(0.8))
	obs.Tap(0, 1, cell(0.5))
	obs.Tap(0, 2, cell(0.7))
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
	if _, _, err := RunWithObserver(inst, cfg); err == nil {
		t.Error("restarts: want error")
	}
}
