// Package dp implements the differential-privacy machinery behind the
// paper's LPPM (Laplace Privacy-Preserving Mechanism): the standard and
// bounded Laplace mechanisms, the Gaussian and exponential mechanisms for
// comparison experiments, and a composition accountant that tracks the
// privacy budget spent across the iterations of the distributed algorithm.
//
// The paper's Definition 2 perturbs each routing value y by subtracting a
// noise term r drawn from a Laplace density truncated and renormalized on
// the interval [0, δ·y] (its eq. 28, following Holohan et al., "The Bounded
// Laplace Mechanism in Differential Privacy"). Theorem 4 states the
// mechanism is ε-differentially private when the scale satisfies
// β ≥ Δf/ε; BetaForEpsilon implements exactly that calibration.
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// SampleLaplace draws one sample from the zero-mean Laplace distribution
// with the given scale b (density e^(−|x|/b)/(2b)) using inverse-CDF
// sampling. It panics if scale is not positive, mirroring math/rand's
// treatment of invalid distribution parameters.
func SampleLaplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 {
		panic(fmt.Sprintf("dp: Laplace scale must be positive, got %v", scale))
	}
	// u uniform on (-0.5, 0.5]; inverse CDF of the Laplace distribution.
	u := rng.Float64() - 0.5
	if u == -0.5 { // avoid log(0) at the open end
		u = -0.5 + 1e-16
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// BetaForEpsilon returns the Laplace scale β = Δf/ε that Theorem 4 of the
// paper requires for ε-differential privacy with query sensitivity Δf
// (eq. 30). It errors on non-positive inputs, because a zero ε or
// sensitivity would demand infinite or zero noise, and on non-finite ones.
func BetaForEpsilon(sensitivity, epsilon float64) (float64, error) {
	if !(sensitivity > 0) || math.IsInf(sensitivity, 1) {
		return 0, fmt.Errorf("dp: sensitivity must be positive and finite, got %v", sensitivity)
	}
	if !(epsilon > 0) || math.IsInf(epsilon, 1) {
		return 0, fmt.Errorf("dp: epsilon must be positive and finite, got %v", epsilon)
	}
	return sensitivity / epsilon, nil
}

// BoundedLaplace is the truncated-and-renormalized Laplace distribution of
// the paper's eq. 28: density proportional to e^(−|r|/β) restricted to
// [Lo, Hi]. The zero value is not usable; construct with NewBoundedLaplace.
type BoundedLaplace struct {
	beta   float64
	lo, hi float64
	// massNeg and massPos are the unnormalized masses of [lo,0) and
	// [max(lo,0), hi]; their sum is the normalization constant α(β)·2β.
	massNeg, massPos float64
}

// NewBoundedLaplace builds the distribution. Requirements: β > 0 and
// lo ≤ hi. The interval may straddle zero; LPPM uses [0, δ·y].
func NewBoundedLaplace(beta, lo, hi float64) (*BoundedLaplace, error) {
	if beta <= 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("dp: beta must be positive and finite, got %v", beta)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return nil, fmt.Errorf("dp: invalid interval [%v, %v]", lo, hi)
	}
	b := &BoundedLaplace{beta: beta, lo: lo, hi: hi}
	// Unnormalized mass of e^(−|r|/β) over [a,b] with a,b on one side of 0
	// is β·|e^(−|a|/β) − e^(−|b|/β)|.
	if lo < 0 {
		upper := math.Min(hi, 0)
		b.massNeg = beta * (math.Exp(-(-upper)/beta) - math.Exp(-(-lo)/beta))
	}
	if hi > 0 {
		lower := math.Max(lo, 0)
		b.massPos = beta * (math.Exp(-lower/beta) - math.Exp(-hi/beta))
	}
	if b.massNeg+b.massPos <= 0 {
		// Degenerate interval (lo == hi): treat as a point mass.
		b.massNeg, b.massPos = 0, 0
	}
	return b, nil
}

// Beta returns the scale parameter β.
func (b *BoundedLaplace) Beta() float64 { return b.beta }

// Density evaluates the renormalized density at r (eq. 28): zero outside
// the support.
func (b *BoundedLaplace) Density(r float64) float64 {
	if r < b.lo || r > b.hi {
		return 0
	}
	total := b.massNeg + b.massPos
	if total == 0 {
		return math.Inf(1) // point mass at lo == hi
	}
	return math.Exp(-math.Abs(r)/b.beta) / total
}

// Sample draws one value by inverse-CDF sampling. Degenerate intervals
// return the point lo.
func (b *BoundedLaplace) Sample(rng *rand.Rand) float64 {
	total := b.massNeg + b.massPos
	if total == 0 {
		return b.lo
	}
	u := rng.Float64() * total
	if u < b.massNeg {
		// Negative side: r ∈ [lo, min(hi,0)), density e^(r/β).
		// Mass from lo to r is β(e^(r/β) − e^(lo/β)).
		r := b.beta * math.Log(math.Exp(b.lo/b.beta)+u/b.beta)
		return clamp(r, b.lo, b.hi)
	}
	u -= b.massNeg
	// Positive side: r ∈ [max(lo,0), hi], density e^(−r/β).
	// Mass from lower to r is β(e^(−lower/β) − e^(−r/β)).
	lower := math.Max(b.lo, 0)
	r := -b.beta * math.Log(math.Exp(-lower/b.beta)-u/b.beta)
	return clamp(r, b.lo, b.hi)
}

// Mean returns the exact expectation of the distribution.
func (b *BoundedLaplace) Mean() float64 {
	total := b.massNeg + b.massPos
	if total == 0 {
		return b.lo
	}
	var moment float64
	// ∫ r·e^(−r/β) dr over [a,c] with 0 ≤ a ≤ c equals
	// β[(a+β)e^(−a/β) − (c+β)e^(−c/β)].
	if b.hi > 0 {
		a := math.Max(b.lo, 0)
		moment += b.beta * ((a+b.beta)*math.Exp(-a/b.beta) - (b.hi+b.beta)*math.Exp(-b.hi/b.beta))
	}
	if b.lo < 0 {
		// Mirror: ∫ r·e^(r/β) dr over [lo, c], c = min(hi,0), is the
		// negative of the positive-side formula applied to [−c, −lo].
		a, c := -math.Min(b.hi, 0), -b.lo
		moment -= b.beta * ((a+b.beta)*math.Exp(-a/b.beta) - (c+b.beta)*math.Exp(-c/b.beta))
	}
	return moment / total
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LPPMNoise draws the paper's Definition 2 disturbance for one routing
// value y: a bounded-Laplace sample on [0, δ·y] with scale β. δ must lie in
// [0,1) (the paper's Laplace component factor) and y in [0,1]. A zero y or
// δ yields zero noise.
func LPPMNoise(rng *rand.Rand, y, delta, beta float64) (float64, error) {
	if delta < 0 || delta >= 1 {
		return 0, fmt.Errorf("dp: delta must be in [0,1), got %v", delta)
	}
	if y < 0 || y > 1+1e-9 {
		return 0, fmt.Errorf("dp: routing value must be in [0,1], got %v", y)
	}
	if beta <= 0 {
		return 0, fmt.Errorf("dp: beta must be positive, got %v", beta)
	}
	hi := delta * y
	if hi <= 0 {
		return 0, nil
	}
	bl, err := NewBoundedLaplace(beta, 0, hi)
	if err != nil {
		return 0, err
	}
	return bl.Sample(rng), nil
}
