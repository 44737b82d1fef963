package core

import (
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

func TestTheorem5BoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst := randomInstance(rng, 2, 4, 5)
	coord, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	lppm, err := NewLPPM(PrivacyConfig{
		Epsilon: 0.1, Delta: 0.5, Noise: NewNoiseSource(32),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Theorem 5 must hold for every threshold ζ. Small ζ pushes Pr toward
	// 0 (bound → W, trivially true); large ζ pushes Pr toward 1 (bound →
	// Φ(ζ), which must still dominate the measured mean increase).
	for _, zeta := range []float64{0.1, 1, 5, 20, 100} {
		b, err := EvaluateTheorem5(inst, lppm, res.Solution.Routing, zeta, 400,
			rand.New(rand.NewSource(33)))
		if err != nil {
			t.Fatal(err)
		}
		if b.Pr < 0 || b.Pr > 1 {
			t.Fatalf("zeta=%v: Pr = %v", zeta, b.Pr)
		}
		if b.MeanIncrease > b.Bound+1e-9 {
			t.Errorf("zeta=%v: mean increase %v exceeds Theorem 5 bound %v (Pr=%v, Φ=%v)",
				zeta, b.MeanIncrease, b.Bound, b.Pr, b.Phi)
		}
		if b.MeanIncrease < -1e-9 {
			t.Errorf("zeta=%v: negative mean increase %v — subtractive noise cannot reduce cost",
				zeta, b.MeanIncrease)
		}
	}
}

func TestTheorem5PrMonotoneInZeta(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	inst := randomInstance(rng, 2, 4, 5)
	coord, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	lppm, err := NewLPPM(PrivacyConfig{
		Epsilon: 1, Delta: 0.5, Noise: NewNoiseSource(35),
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, zeta := range []float64{0, 0.5, 2, 10, 1e6} {
		b, err := EvaluateTheorem5(inst, lppm, res.Solution.Routing, zeta, 300,
			rand.New(rand.NewSource(36)))
		if err != nil {
			t.Fatal(err)
		}
		if b.Pr < prev-0.05 { // same seed; tolerate Monte Carlo wobble
			t.Errorf("Pr decreased from %v to %v at zeta=%v", prev, b.Pr, zeta)
		}
		prev = b.Pr
	}
	// A huge ζ covers every draw.
	b, err := EvaluateTheorem5(inst, lppm, res.Solution.Routing, 1e6, 100,
		rand.New(rand.NewSource(37)))
	if err != nil {
		t.Fatal(err)
	}
	if b.Pr != 1 {
		t.Errorf("Pr at huge zeta = %v, want 1", b.Pr)
	}
}

func TestTheorem5Validation(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	inst := randomInstance(rng, 1, 2, 3)
	y := model.NewRoutingPolicy(inst)
	lppm, err := NewLPPM(PrivacyConfig{Epsilon: 1, Delta: 0.5, Noise: NewNoiseSource(38)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateTheorem5(inst, nil, y, 1, 10, rng); err == nil {
		t.Error("nil LPPM: want error")
	}
	if _, err := EvaluateTheorem5(inst, lppm, y, -1, 10, rng); err == nil {
		t.Error("negative zeta: want error")
	}
	if _, err := EvaluateTheorem5(inst, lppm, y, 1, 0, rng); err == nil {
		t.Error("zero samples: want error")
	}
	if _, err := EvaluateTheorem5(inst, lppm, y, 1, 10, nil); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := EvaluateTheorem5(&model.Instance{N: 0}, lppm, y, 1, 10, rng); err == nil {
		t.Error("invalid instance: want error")
	}
}
