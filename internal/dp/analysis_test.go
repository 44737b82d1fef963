package dp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestEmpiricalPrivacyLossValidation(t *testing.T) {
	a := []float64{0.5}
	if _, err := empiricalPrivacyLoss(nil, a, 0, 1, 10, 1); err == nil {
		t.Error("empty A: want error")
	}
	if _, err := empiricalPrivacyLoss(a, nil, 0, 1, 10, 1); err == nil {
		t.Error("empty B: want error")
	}
	if _, err := empiricalPrivacyLoss(a, a, 1, 0, 10, 1); err == nil {
		t.Error("bad range: want error")
	}
	if _, err := empiricalPrivacyLoss(a, a, 0, 1, 0, 1); err == nil {
		t.Error("zero buckets: want error")
	}
	if _, err := empiricalPrivacyLoss([]float64{2}, a, 0, 1, 10, 1); err == nil {
		t.Error("out-of-range sample: want error")
	}
}

func TestEmpiricalPrivacyLossIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	res, err := empiricalPrivacyLoss(samples, samples, 0, 1, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRatio != 1 || res.EscapeMass != 0 {
		t.Errorf("identical samples: ratio=%v escape=%v", res.MaxRatio, res.EscapeMass)
	}
}

func TestEmpiricalPrivacyLossDisjoint(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = 0.1
		b[i] = 0.9
	}
	res, err := empiricalPrivacyLoss(a, b, 0, 1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.EscapeMass != 1 {
		t.Errorf("disjoint supports: escape = %v, want 1", res.EscapeMass)
	}
}

// TestLPPMEmpiricalPrivacyLoss measures the privacy loss of the paper's
// per-value bounded-Laplace perturbation on two neighboring routing
// values. Two findings, both documented in EXPERIMENTS.md:
//
//  1. Over the common support the probability ratio respects e^ε as
//     Theorem 4 claims (β = Δf/ε with Δf the value difference).
//  2. Because the noise interval [0, δ·y] depends on the protected value
//     itself, the two output supports differ; the escaping mass is a
//     residual leak that a fixed-interval bounded Laplace (Holohan et
//     al.) would avoid. The measurement quantifies it.
func TestLPPMEmpiricalPrivacyLoss(t *testing.T) {
	const (
		yA    = 0.80
		yB    = 0.78
		delta = 0.5
		eps   = 1.0
		n     = 400000
	)
	sens := yA - yB // neighboring uploads differing by one routing tweak
	beta, err := BetaForEpsilon(sens, eps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sample := func(y float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			r, err := LPPMNoise(rng, y, delta, beta)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = y - r
		}
		return out
	}
	a := sample(yA)
	b := sample(yB)
	res, err := empiricalPrivacyLoss(a, b, 0, 1, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LPPM neighboring-output loss: maxRatio=%.3f (e^ε=%.3f), escapeMass=%.4f",
		res.MaxRatio, math.Exp(eps), res.EscapeMass)
	// Theorem 4's ratio bound over the common support, with slack for
	// bucket-edge effects and sampling noise.
	if res.MaxRatio > math.Exp(eps)*1.5 {
		t.Errorf("common-support ratio %v far exceeds e^ε = %v", res.MaxRatio, math.Exp(eps))
	}
	// The support mismatch is y-dependent by construction: the supports
	// are [(1−δ)·y, y]. With β = Δf/ε = 0.02 the noise concentrates near
	// zero, so most of A's outputs land above B's upper end (analytically
	// P(r < Δf) = (1−e^(−Δf/β))/(1−e^(−δ·y/β)) ≈ 1−e^(−1) ≈ 0.632 for A,
	// ≈ 0 for B, average ≈ 0.316). This measured leak — absent from a
	// fixed-interval bounded Laplace à la Holohan et al. — is the main
	// empirical caveat on the paper's Theorem 4 and is recorded in
	// EXPERIMENTS.md.
	if res.EscapeMass < 0.25 || res.EscapeMass > 0.40 {
		t.Errorf("escape mass %v outside the analytically expected ≈0.316 band", res.EscapeMass)
	}
}

// privacyLoss is the result of an empirical privacy-loss measurement
// between the output distributions of a mechanism on two neighboring
// inputs.
type privacyLoss struct {
	// MaxRatio is the largest probability ratio observed between
	// histogram buckets populated by both distributions — the empirical
	// e^ε over the common support.
	MaxRatio float64
	// EscapeMass is the probability mass (averaged over both directions)
	// that one distribution places where the other has no support. A
	// mechanism with data-dependent output ranges (such as the paper's
	// per-value noise interval [0, δ·y]) leaks through this mass no
	// matter how large its noise scale is; it behaves like the δ of an
	// (ε, δ)-DP guarantee.
	EscapeMass float64
	// Buckets is the histogram resolution used.
	Buckets int
}

// empiricalPrivacyLoss histograms two sample sets over [lo, hi] with the
// given number of buckets and reports the maximum cross-bucket probability
// ratio (over buckets where both sides have at least minCount samples) and
// the escape mass. It is a measurement tool, not a
// proof: sampling noise makes the ratio an estimate.
func empiricalPrivacyLoss(samplesA, samplesB []float64, lo, hi float64, buckets, minCount int) (*privacyLoss, error) {
	if len(samplesA) == 0 || len(samplesB) == 0 {
		return nil, fmt.Errorf("dp: both sample sets must be non-empty")
	}
	if hi <= lo {
		return nil, fmt.Errorf("dp: invalid range [%v, %v]", lo, hi)
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("dp: buckets must be positive, got %d", buckets)
	}
	if minCount <= 0 {
		minCount = 1
	}
	histA := make([]int, buckets)
	histB := make([]int, buckets)
	fill := func(hist []int, samples []float64) error {
		width := (hi - lo) / float64(buckets)
		for _, v := range samples {
			if v < lo || v > hi {
				return fmt.Errorf("dp: sample %v outside [%v, %v]", v, lo, hi)
			}
			idx := int((v - lo) / width)
			if idx >= buckets {
				idx = buckets - 1
			}
			hist[idx]++
		}
		return nil
	}
	if err := fill(histA, samplesA); err != nil {
		return nil, err
	}
	if err := fill(histB, samplesB); err != nil {
		return nil, err
	}

	res := &privacyLoss{Buckets: buckets, MaxRatio: 1}
	escapeA, escapeB := 0, 0
	for i := 0; i < buckets; i++ {
		a, b := histA[i], histB[i]
		switch {
		case a >= minCount && b >= minCount:
			pa := float64(a) / float64(len(samplesA))
			pb := float64(b) / float64(len(samplesB))
			ratio := math.Max(pa/pb, pb/pa)
			if ratio > res.MaxRatio {
				res.MaxRatio = ratio
			}
		case a > 0 && b == 0:
			escapeA += a
		case b > 0 && a == 0:
			escapeB += b
		}
	}
	res.EscapeMass = (float64(escapeA)/float64(len(samplesA)) +
		float64(escapeB)/float64(len(samplesB))) / 2
	return res, nil
}
