// Package model defines the joint caching-and-routing problem studied by
// Zeng et al., "Privacy-Preserving Distributed Edge Caching for Mobile Data
// Offloading in 5G Networks" (ICDCS 2020): one macro base station (BS),
// N small base stations (SBSs), U mobile-user (MU) groups and F unit-size
// contents.
//
// The package holds the problem data (Instance), the decision variables
// (CachingPolicy, RoutingPolicy), the serving-cost objective (eq. 5-7 of the
// paper) and feasibility checking for the constraint system (eq. 1-4).
// Everything else in this repository — the distributed algorithm, the
// privacy mechanism, the baselines and the experiment harness — is written
// against these types.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Instance is an immutable description of one problem instance.
//
// Index conventions used across the whole repository:
//
//	n ∈ [0,N) indexes SBSs,
//	u ∈ [0,U) indexes MU groups,
//	f ∈ [0,F) indexes contents.
//
// All contents have unit size (paper §II-A), so cache capacities are counted
// in contents and bandwidth in served request units.
type Instance struct {
	// N, U and F are the numbers of SBSs, MU groups and contents.
	N, U, F int

	// Demand[u][f] is λ_uf, the mean request arrival rate of MU group u
	// for content f. Demands may exceed 1: a group aggregates many users.
	Demand [][]float64

	// Links[n][u] is l_nu ∈ {0,1}: whether SBS n can serve MU group u.
	Links [][]bool

	// CacheCap[n] is C_n, the number of contents SBS n can cache (eq. 1).
	CacheCap []int

	// Bandwidth[n] is B_n, the total request units SBS n can serve (eq. 3).
	Bandwidth []float64

	// EdgeCost[n][u] is d_nu, the weighted transmission cost for SBS n to
	// serve one request unit of MU group u.
	EdgeCost [][]float64

	// BSCost[u] is d̂_u, the weighted transmission cost for the BS to serve
	// one request unit of MU group u. The paper assumes d̂_u ≫ d_nu.
	BSCost []float64
}

// Validate checks the structural and numeric consistency of the instance.
// It returns a descriptive error for the first problem found, or nil if the
// instance is well-formed.
func (in *Instance) Validate() error {
	if in == nil {
		return errors.New("model: nil instance")
	}
	if in.N <= 0 || in.U <= 0 || in.F <= 0 {
		return fmt.Errorf("model: dimensions must be positive, got N=%d U=%d F=%d", in.N, in.U, in.F)
	}
	if len(in.Demand) != in.U {
		return fmt.Errorf("model: Demand has %d rows, want U=%d", len(in.Demand), in.U)
	}
	for u, row := range in.Demand {
		if len(row) != in.F {
			return fmt.Errorf("model: Demand[%d] has %d entries, want F=%d", u, len(row), in.F)
		}
		for f, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("model: Demand[%d][%d] = %v is not a finite non-negative rate", u, f, v)
			}
		}
	}
	if len(in.Links) != in.N {
		return fmt.Errorf("model: Links has %d rows, want N=%d", len(in.Links), in.N)
	}
	for n, row := range in.Links {
		if len(row) != in.U {
			return fmt.Errorf("model: Links[%d] has %d entries, want U=%d", n, len(row), in.U)
		}
	}
	if len(in.CacheCap) != in.N {
		return fmt.Errorf("model: CacheCap has %d entries, want N=%d", len(in.CacheCap), in.N)
	}
	for n, c := range in.CacheCap {
		if c < 0 {
			return fmt.Errorf("model: CacheCap[%d] = %d is negative", n, c)
		}
	}
	if len(in.Bandwidth) != in.N {
		return fmt.Errorf("model: Bandwidth has %d entries, want N=%d", len(in.Bandwidth), in.N)
	}
	for n, b := range in.Bandwidth {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("model: Bandwidth[%d] = %v is not a finite non-negative capacity", n, b)
		}
	}
	if len(in.EdgeCost) != in.N {
		return fmt.Errorf("model: EdgeCost has %d rows, want N=%d", len(in.EdgeCost), in.N)
	}
	for n, row := range in.EdgeCost {
		if len(row) != in.U {
			return fmt.Errorf("model: EdgeCost[%d] has %d entries, want U=%d", n, len(row), in.U)
		}
		for u, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("model: EdgeCost[%d][%d] = %v is not a finite non-negative cost", n, u, v)
			}
		}
	}
	if len(in.BSCost) != in.U {
		return fmt.Errorf("model: BSCost has %d entries, want U=%d", len(in.BSCost), in.U)
	}
	for u, v := range in.BSCost {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: BSCost[%d] = %v is not a finite non-negative cost", u, v)
		}
	}
	return nil
}

// Clone returns a deep copy of the instance. The copy shares no backing
// storage with the receiver, so callers may mutate it freely (the experiment
// harness uses this for parameter sweeps).
func (in *Instance) Clone() *Instance {
	out := &Instance{N: in.N, U: in.U, F: in.F}
	out.Demand = cloneMatrix(in.Demand)
	out.Links = cloneBoolMatrix(in.Links)
	out.CacheCap = append([]int(nil), in.CacheCap...)
	out.Bandwidth = append([]float64(nil), in.Bandwidth...)
	out.EdgeCost = cloneMatrix(in.EdgeCost)
	out.BSCost = append([]float64(nil), in.BSCost...)
	return out
}

// TotalDemand returns the aggregate request rate Σ_u Σ_f λ_uf.
func (in *Instance) TotalDemand() float64 {
	var sum float64
	for _, row := range in.Demand {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// ReachableDemand returns the part of the aggregate demand that at least one
// SBS is linked to. Demand from unlinked MU groups can only ever be served
// by the BS, so it is a constant offset in every policy comparison.
func (in *Instance) ReachableDemand() float64 {
	var sum float64
	for u := 0; u < in.U; u++ {
		linked := false
		for n := 0; n < in.N; n++ {
			if in.Links[n][u] {
				linked = true
				break
			}
		}
		if !linked {
			continue
		}
		for f := 0; f < in.F; f++ {
			sum += in.Demand[u][f]
		}
	}
	return sum
}

// LinkCount returns the number of (n,u) pairs with l_nu = 1.
func (in *Instance) LinkCount() int {
	count := 0
	for _, row := range in.Links {
		for _, l := range row {
			if l {
				count++
			}
		}
	}
	return count
}

// LinkedGroups returns the MU groups linked to SBS n, in increasing order.
func (in *Instance) LinkedGroups(n int) []int {
	var groups []int
	for u := 0; u < in.U; u++ {
		if in.Links[n][u] {
			groups = append(groups, u)
		}
	}
	return groups
}

// MaxCost returns W = Σ_u d̂_u Σ_f λ_uf, the serving cost when the BS serves
// every request directly (Theorem 5 of the paper uses this as the worst
// case). It is also the cost of the empty routing policy.
func (in *Instance) MaxCost() float64 {
	var sum float64
	for u := 0; u < in.U; u++ {
		var demand float64
		for f := 0; f < in.F; f++ {
			demand += in.Demand[u][f]
		}
		sum += in.BSCost[u] * demand
	}
	return sum
}

// Fingerprint returns a stable 64-bit FNV-1a digest of the instance data.
// Checkpoints embed it so a snapshot cannot be resumed against a different
// instance that happens to share the same dimensions — the trajectories
// would silently diverge instead of failing fast.
func (in *Instance) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mixF := func(v float64) { mix(math.Float64bits(v)) }
	mix(uint64(in.N))
	mix(uint64(in.U))
	mix(uint64(in.F))
	for _, row := range in.Demand {
		for _, v := range row {
			mixF(v)
		}
	}
	for _, row := range in.Links {
		for _, l := range row {
			if l {
				mix(1)
			} else {
				mix(0)
			}
		}
	}
	for _, c := range in.CacheCap {
		mix(uint64(c))
	}
	for _, b := range in.Bandwidth {
		mixF(b)
	}
	for _, row := range in.EdgeCost {
		for _, v := range row {
			mixF(v)
		}
	}
	for _, v := range in.BSCost {
		mixF(v)
	}
	return h
}

func cloneMatrix(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func cloneBoolMatrix(m [][]bool) [][]bool {
	if m == nil {
		return nil
	}
	out := make([][]bool, len(m))
	for i, row := range m {
		out[i] = append([]bool(nil), row...)
	}
	return out
}

// NewUFMat returns a flat U×F zero matrix shaped like an aggregate routing
// matrix for this instance.
func (in *Instance) NewUFMat() Mat { return NewMat(in.U, in.F) }
