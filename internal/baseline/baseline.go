// Package baseline implements the comparison schemes of the paper's
// evaluation (§V) plus verification oracles:
//
//   - PlanLRFU: the paper's baseline — an online replay in which per-SBS
//     caches (LRFU by default; any replacement family via LRFUConfig.Policy)
//     serve hits at the edge and fetch misses over the backhaul, measuring
//     the cost a classical reactive scheme actually pays.
//   - CentralizedMILP: the exact joint optimum computed by mixed-integer
//     programming over internal/lp. Exponential in N·F; used on small
//     instances to certify that Algorithm 1 reaches the global optimum
//     (the paper's Theorem 2).
//   - TopPopular: cache the most demanded contents everywhere (a common
//     femtocaching strawman).
//   - NoCache: serve everything from the BS (the cost ceiling W).
package baseline

import (
	"math/rand"

	"edgecache/internal/cache"
	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/trace"
)

// GreedyRouting computes a feasible routing for a fixed caching policy by
// letting each SBS in index order grab the highest-density residual demand
// it can serve (the same fractional knapsack the paper's routing
// sub-problem uses). It mutates nothing and returns a fresh policy.
func GreedyRouting(inst *model.Instance, caching *model.CachingPolicy) (*model.RoutingPolicy, error) {
	routing := model.NewRoutingPolicy(inst)
	tracker := model.NewAggregateTracker(inst)
	yMinus := inst.NewUFMat()
	for n := 0; n < inst.N; n++ {
		sub, err := core.NewSubproblem(inst, n, core.SubproblemConfig{DualIters: 1})
		if err != nil {
			return nil, err
		}
		// Later SBSs have routed nothing yet, so y_{-n} is the running sum
		// of the earlier blocks.
		tracker.YMinusInto(inst, routing, n, yMinus)
		block, err := sub.BestRoutingForCache(caching.RowBools(n), yMinus)
		if err != nil {
			return nil, err
		}
		tracker.Install(inst, routing, n, yMinus, block)
	}
	return routing, nil
}

// LRFUConfig parameterizes the online-replay baseline.
type LRFUConfig struct {
	// Policy selects the replacement family ("LRU", "LFU", "FIFO",
	// "LRFU", "LFUDA", "CLOCK"); empty means LRFU, the paper's baseline.
	Policy string
	// Lambda is LRFU's recency/frequency trade-off in [0,1]. The default
	// (0 → 0.1) weighs frequency heavily, which is the regime where LRFU
	// is competitive on skewed video workloads. Other policies ignore it.
	Lambda float64
	// MaxRequests caps the replayed stream length; the demand matrix is
	// scaled down to approximately this many requests before expansion.
	// 0 means the default 20000.
	MaxRequests int
	// Seed drives the stream expansion.
	Seed int64
}

func (c LRFUConfig) withDefaults() LRFUConfig {
	if c.Policy == "" {
		c.Policy = "LRFU"
	}
	if c.Lambda == 0 {
		c.Lambda = 0.1
	}
	if c.MaxRequests == 0 {
		c.MaxRequests = 20000
	}
	return c
}

// LRFUResult is the outcome of the online LRFU replay.
type LRFUResult struct {
	// Snapshot is the end-of-replay cache contents combined with the
	// greedy routing on those caches — a feasible (x, y) pair for
	// inspection and for any evaluation that needs a model.Solution.
	Snapshot *model.Solution
	// OnlineCost is the serving cost measured during the replay itself:
	// cache hits with spare bandwidth are served at the edge, everything
	// else goes over the backhaul. This is the cost the paper's "classical
	// replacement scheme" actually pays in operation, including the misses
	// it suffers while its caches are still converging and the thrash its
	// swapping causes; the figure experiments plot it.
	OnlineCost model.CostBreakdown
	// HitRate is the fraction of replayed requests served at the edge.
	HitRate float64
}

// PlanLRFU runs the paper's LRFU baseline as an online simulation: the
// request trace is replayed in time order; each request is served from the
// cheapest linked SBS that has the content cached and bandwidth left
// (updating that cache's recency/frequency state), and otherwise from the
// BS, in which case one linked SBS admits the content, evicting per LRFU.
//
// This is the operating regime of a classical replacement scheme: no
// global optimization, no foresight. The distributed algorithm and the
// MILP oracle decide caches and routing jointly and in advance, which is
// exactly the advantage the paper's Figs. 3-6 quantify.
func PlanLRFU(inst *model.Instance, cfg LRFUConfig) (*LRFUResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	// Scale the demand matrix so the expanded stream stays tractable;
	// every replayed request then stands for `unit` demand units.
	total := inst.TotalDemand()
	if total <= 0 {
		sol, err := NoCache(inst)
		if err != nil {
			return nil, err
		}
		return &LRFUResult{Snapshot: sol, OnlineCost: sol.Cost}, nil
	}
	scale := 1.0
	if total > float64(cfg.MaxRequests) {
		scale = float64(cfg.MaxRequests) / total
	}
	scaled := make([][]float64, inst.U)
	for u := range scaled {
		scaled[u] = make([]float64, inst.F)
		for f := range scaled[u] {
			scaled[u][f] = inst.Demand[u][f] * scale
		}
	}
	stream, err := trace.Stream(scaled, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}

	caches := make([]cache.Policy, inst.N)
	bandwidthLeft := make([]float64, inst.N)
	for n := 0; n < inst.N; n++ {
		caches[n], err = cache.NewByName(cfg.Policy, inst.CacheCap[n], cfg.Lambda)
		if err != nil {
			return nil, err
		}
		bandwidthLeft[n] = inst.Bandwidth[n]
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var cost model.CostBreakdown
	hits := 0
	// Each replayed request stands for one request of the scaled matrix,
	// i.e. 1/scale demand units of the original instance.
	unit := 1 / scale
	// Precompute each group's linked SBSs for the attachment draw.
	linkedSBSs := make([][]int, inst.U)
	for u := 0; u < inst.U; u++ {
		for n := 0; n < inst.N; n++ {
			if inst.Links[n][u] {
				linkedSBSs[u] = append(linkedSBSs[u], n)
			}
		}
	}
	for _, req := range stream {
		linked := linkedSBSs[req.Group]
		if len(linked) == 0 {
			cost.Backhaul += inst.BSCost[req.Group] * unit
			continue
		}
		// The request attaches to one linked SBS (cell selection is by
		// radio conditions, not by cache contents — a classical scheme has
		// no cache-aware request steering). A cached content with
		// bandwidth to spare is served at the edge; a miss is served over
		// the backhaul and the SBS admits the content, which consumes SBS
		// bandwidth for the fill transfer (the planner-based schemes place
		// caches ahead of the serving window instead, which is exactly the
		// reactive-vs-planned gap the paper's figures quantify).
		attach := linked[rng.Intn(len(linked))]
		if caches[attach].Contains(req.Content) {
			accessAt(caches[attach], req.Content, req.Time)
			if bandwidthLeft[attach] >= unit {
				hits++
				bandwidthLeft[attach] -= unit
				cost.Edge += inst.EdgeCost[attach][req.Group] * unit
				continue
			}
			cost.Backhaul += inst.BSCost[req.Group] * unit
			continue
		}
		cost.Backhaul += inst.BSCost[req.Group] * unit
		if bandwidthLeft[attach] >= unit {
			bandwidthLeft[attach] -= unit
			accessAt(caches[attach], req.Content, req.Time) // fetch and admit
		}
	}
	// The Poisson expansion realizes slightly more or less mass than the
	// instance's total demand; normalize the measured cost to the exact
	// demand mass so it is comparable with the model-evaluated costs.
	if streamMass := float64(len(stream)) * unit; streamMass > 0 {
		factor := total / streamMass
		cost.Edge *= factor
		cost.Backhaul *= factor
	}
	cost.Total = cost.Edge + cost.Backhaul

	caching := model.NewCachingPolicy(inst)
	for n := 0; n < inst.N; n++ {
		for _, f := range caches[n].Contents() {
			caching.Set(n, f, true)
		}
	}
	routing, err := GreedyRouting(inst, caching)
	if err != nil {
		return nil, err
	}
	hitRate := 0.0
	if len(stream) > 0 {
		hitRate = float64(hits) / float64(len(stream))
	}
	return &LRFUResult{
		Snapshot: &model.Solution{
			Caching: caching,
			Routing: routing,
			Cost:    model.TotalServingCost(inst, routing),
		},
		OnlineCost: cost,
		HitRate:    hitRate,
	}, nil
}

// TopPopular caches the C_n globally most demanded contents at every SBS
// and routes greedily.
func TopPopular(inst *model.Instance) (*model.Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	ranked := trace.TopContents(inst.Demand, inst.F)
	caching := model.NewCachingPolicy(inst)
	for n := 0; n < inst.N; n++ {
		limit := inst.CacheCap[n]
		if limit > len(ranked) {
			limit = len(ranked)
		}
		for _, f := range ranked[:limit] {
			caching.Set(n, f, true)
		}
	}
	routing, err := GreedyRouting(inst, caching)
	if err != nil {
		return nil, err
	}
	return &model.Solution{
		Caching: caching,
		Routing: routing,
		Cost:    model.TotalServingCost(inst, routing),
	}, nil
}

// NoCache returns the empty policy whose cost is the ceiling W = MaxCost.
func NoCache(inst *model.Instance) (*model.Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	caching := model.NewCachingPolicy(inst)
	routing := model.NewRoutingPolicy(inst)
	return &model.Solution{
		Caching: caching,
		Routing: routing,
		Cost:    model.TotalServingCost(inst, routing),
	}, nil
}

// accessAt records a reference with a real timestamp when the policy
// supports one (LRFU's CRF decay), falling back to the logical clock.
func accessAt(p cache.Policy, content int, t float64) {
	if lrfu, ok := p.(*cache.LRFU); ok {
		lrfu.AccessAt(content, t)
		return
	}
	p.Access(content)
}
