package core

import (
	"fmt"
	"math/rand"

	"edgecache/internal/model"
)

// Theorem5Bound evaluates the paper's Theorem 5 cost-increase bound for a
// concrete routing policy y and LPPM configuration:
//
//	E[f(ŷ) − f(y)] ≤ Φ(ζ)·Pr + W·(1 − Pr),
//
// where ζ is a chosen total-noise threshold, Pr = P(Σ r_nuf ≤ ζ),
// Φ(ζ) = L·ζ with L the largest per-unit cost slope
// max_{n,u,f} (d̂_u − d_nu)·λ_uf (subtracting r from y_nuf moves the cost
// by at most that much per unit of noise), and W the all-backhaul ceiling.
//
// The paper computes Pr from the convolution of the per-entry bounded
// Laplace densities; Bound estimates it by Monte Carlo over the actual
// mechanism (samples draws of the full noise vector), which is exact in
// the limit and respects the data-dependent intervals [0, δ·y_nuf].
type Theorem5Bound struct {
	// Zeta is the threshold ζ on the total noise Σ|r|.
	Zeta float64
	// Bound is the right-hand side Φ(ζ)·Pr + W·(1−Pr).
	Bound float64
	// Pr is the estimated P(Σ r ≤ ζ).
	Pr float64
	// Phi is Φ(ζ) = L·ζ.
	Phi float64
	// MeanIncrease is the Monte Carlo estimate of E[f(ŷ) − f(y)], returned
	// for convenience so callers can verify the bound empirically.
	MeanIncrease float64
}

// EvaluateTheorem5 estimates the Theorem 5 quantities for routing policy y
// under the given LPPM, using `samples` Monte Carlo draws.
func EvaluateTheorem5(inst *model.Instance, lppm *LPPM, y *model.RoutingPolicy,
	zeta float64, samples int, rng *rand.Rand) (*Theorem5Bound, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if lppm == nil {
		return nil, fmt.Errorf("core: EvaluateTheorem5 requires an LPPM")
	}
	if zeta < 0 {
		return nil, fmt.Errorf("core: zeta must be non-negative, got %v", zeta)
	}
	if samples <= 0 {
		return nil, fmt.Errorf("core: samples must be positive, got %d", samples)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: EvaluateTheorem5 requires an rng")
	}

	// L = max per-unit cost slope over servable pairs.
	var slope float64
	for n := 0; n < inst.N; n++ {
		for u := 0; u < inst.U; u++ {
			if !inst.Links[n][u] {
				continue
			}
			density := inst.BSCost[u] - inst.EdgeCost[n][u]
			if density < 0 {
				density = 0
			}
			for f := 0; f < inst.F; f++ {
				if s := density * inst.Demand[u][f]; s > slope {
					slope = s
				}
			}
		}
	}

	baseCost := model.TotalServingCost(inst, y).Total
	w := inst.MaxCost()

	within := 0
	var totalIncrease float64
	noised := y.Clone()
	sampler := lppm.withRng(rng)
	for s := 0; s < samples; s++ {
		var noiseMass float64
		for n := 0; n < inst.N; n++ {
			clean := y.SBS(n)
			block, err := sampler.Perturb("theorem5", clean)
			if err != nil {
				return nil, err
			}
			for u := 0; u < block.U; u++ {
				cleanRow, noisedRow := clean.Row(u), block.Row(u)
				for f, v := range noisedRow {
					noiseMass += cleanRow[f] - v
				}
			}
			noised.SetSBS(n, block)
		}
		if noiseMass <= zeta {
			within++
		}
		totalIncrease += model.TotalServingCost(inst, noised).Total - baseCost
	}

	pr := float64(within) / float64(samples)
	phi := slope * zeta
	bound := phi*pr + w*(1-pr)
	return &Theorem5Bound{
		Zeta:         zeta,
		Bound:        bound,
		Pr:           pr,
		Phi:          phi,
		MeanIncrease: totalIncrease / float64(samples),
	}, nil
}

// withRng returns a copy of the mechanism bound to a caller-supplied noise
// source and with accounting disabled — EvaluateTheorem5 draws thousands
// of hypothetical samples that must not pollute the privacy ledger. The
// copy gets its own Perturb workspace.
func (l *LPPM) withRng(rng *rand.Rand) *LPPM {
	cp := *l
	cp.rng = rng
	cp.cfg.Accountant = nil
	cp.out = model.Mat{}
	return &cp
}
