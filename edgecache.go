// Package edgecache is a Go implementation of privacy-preserving
// distributed edge caching for mobile data offloading in 5G networks,
// reproducing Zeng, Huang, Liu & Yang (ICDCS 2020).
//
// The library jointly optimizes which contents each small base station
// (SBS) caches and how user demand is routed between the SBSs and the
// macro base station (BS), minimizing the total serving cost
// f(y) = f1(y) + f2(y) under cache, bandwidth and no-overserve constraints
// (the paper's eq. 1-9). Two deployment styles are offered:
//
//   - Solve / SolveWithPrivacy run the paper's Algorithm 1 in-process: a
//     Gauss-Seidel sweep in which each SBS solves its sub-problem P_n by
//     Lagrangian dual decomposition against the BS-broadcast aggregate
//     routing of its peers.
//   - internal/sim (driven by cmd/edgesim -distributed and the
//     cdnfederation example) runs the same protocol as real BS/SBS agents
//     over an in-memory or TCP transport.
//
// Privacy: SolveWithPrivacy applies the paper's LPPM — each SBS subtracts
// bounded Laplace noise from its routing uploads, giving ε-differential
// privacy per release (Theorem 4) while keeping every constraint satisfied
// (noise only ever shrinks a routing value).
//
// The exported surface of this package is a façade over the internal
// packages; power users drive internal/core, internal/experiments and
// internal/sim directly from within this module (see the examples and
// cmd directories).
package edgecache

import (
	"edgecache/internal/core"
	"edgecache/internal/dp"
	"edgecache/internal/experiments"
	"edgecache/internal/model"
)

// Core model types.
type (
	// Instance is the problem data: demands λ, links l, capacities C and
	// B, and the edge/backhaul cost weights d and d̂.
	Instance = model.Instance
	// CachingPolicy is the binary x_nf decision; RoutingPolicy the
	// fractional y_nuf decision.
	CachingPolicy = model.CachingPolicy
	RoutingPolicy = model.RoutingPolicy
	// Solution bundles policies with their cost; CostBreakdown splits the
	// cost into the edge (f1) and backhaul (f2) parts.
	Solution      = model.Solution
	CostBreakdown = model.CostBreakdown
	// RunResult carries the solution plus convergence metadata.
	RunResult = core.RunResult
	// Scenario builds paper-style instances from a synthetic trending
	// trace; see DefaultScenario.
	Scenario = experiments.Scenario
	// Accountant tracks differential-privacy budget expenditure.
	Accountant = dp.Accountant
)

// DefaultScenario returns the paper's §V-A evaluation configuration
// (3 SBSs, 30 MU groups, 40 links, 50 contents).
func DefaultScenario() Scenario { return experiments.DefaultScenario() }

// Solve runs Algorithm 1 (the distributed updating algorithm, no privacy)
// on the instance and returns the converged joint caching/routing policy.
func Solve(inst *Instance) (*RunResult, error) {
	coord, err := core.NewCoordinator(inst, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return coord.Run()
}

// PrivacyParams configures SolveWithPrivacy.
type PrivacyParams struct {
	// Epsilon is the per-release differential-privacy budget (Theorem 4
	// calibrates the Laplace scale as 1/ε).
	Epsilon float64
	// Delta is the paper's Laplace component factor δ ∈ [0,1): noise for a
	// routing value y is drawn on [0, δ·y].
	Delta float64
	// Seed drives the noise deterministically.
	Seed int64
	// Accountant, when non-nil, records every ε spend per SBS.
	Accountant *Accountant
}

// SolveWithPrivacy runs Algorithm 1 with LPPM applied to every routing
// upload.
func SolveWithPrivacy(inst *Instance, p PrivacyParams) (*RunResult, error) {
	cfg := core.DefaultConfig()
	cfg.MaxSweeps = 12 // the γ rule rarely fires under per-sweep noise
	cfg.Privacy = &core.PrivacyConfig{
		Epsilon:    p.Epsilon,
		Delta:      p.Delta,
		Noise:      core.NewNoiseSource(p.Seed),
		Accountant: p.Accountant,
	}
	coord, err := core.NewCoordinator(inst, cfg)
	if err != nil {
		return nil, err
	}
	return coord.Run()
}

// TotalServingCost evaluates f(y) = f1(y) + f2(y) for a routing policy.
func TotalServingCost(inst *Instance, y *RoutingPolicy) CostBreakdown {
	return model.TotalServingCost(inst, y)
}

// CheckFeasibility verifies a policy pair against the full constraint
// system (eq. 1-4) and returns human-readable violations, empty when
// feasible.
func CheckFeasibility(inst *Instance, x *CachingPolicy, y *RoutingPolicy) []model.Violation {
	return model.CheckFeasibility(inst, x, y)
}
