package experiments

import (
	"math/rand"
	"strconv"

	"edgecache/internal/attack"
	"edgecache/internal/baseline"
	"edgecache/internal/cache"
	"edgecache/internal/core"
	"edgecache/internal/dynamic"
	"edgecache/internal/metrics"
	"edgecache/internal/sim"
	"edgecache/internal/stats"
)

// RestartAblation (E9) quantifies the order dependence of the Gauss-Seidel
// sweep: the fixed-order run of Algorithm 1 versus the best of R shuffled
// orders (the extension in core.Config.Restarts). A nonzero improvement is
// direct evidence that the coupling constraint (4) creates order-dependent
// equilibria (DESIGN.md §4); the restart column is this repository's
// remedy, not part of the paper.
func (h Harness) RestartAblation(restarts int) (*metrics.Table, error) {
	if restarts <= 0 {
		restarts = 4
	}
	tb := metrics.NewTable("E9 — order dependence of the Gauss-Seidel sweep",
		"seed", "fixed order", "best of restarts", "improvement (%)")
	var improvements []float64
	for _, seed := range h.Seeds {
		sc := h.Base
		sc.Seed = seed
		inst, err := sc.Build()
		if err != nil {
			return nil, err
		}
		fixed, err := core.NewCoordinator(inst, core.Config{Sub: h.Sub})
		if err != nil {
			return nil, err
		}
		fres, err := fixed.Run()
		if err != nil {
			return nil, err
		}
		multi, err := core.NewCoordinator(inst, core.Config{
			Sub: h.Sub, Restarts: restarts, RestartSeed: seed,
		})
		if err != nil {
			return nil, err
		}
		mres, err := multi.Run()
		if err != nil {
			return nil, err
		}
		improvement := stats.RelativeChange(fres.Solution.Cost.Total, mres.Solution.Cost.Total) * 100
		improvements = append(improvements, improvement)
		tb.MustAddRow(seed, fres.Solution.Cost.Total, mres.Solution.Cost.Total, improvement)
	}
	tb.AddNote("best of %d shuffled orders; mean improvement %.2f%% — the gap Theorem 2's"+
		" product-form assumption hides", restarts, stats.Mean(improvements))
	return tb, nil
}

// JacobiAblation (E10) compares the paper's sequential Gauss-Seidel sweep
// with the asynchronous Jacobi variant (§VII future work): final cost and
// rounds to convergence.
func (h Harness) JacobiAblation() (*metrics.Table, error) {
	tb := metrics.NewTable("E10 — sequential (Gauss-Seidel) vs parallel (Jacobi) updates",
		"seed", "sequential cost", "sequential sweeps", "jacobi cost", "jacobi rounds", "cost ratio")
	for _, seed := range h.Seeds {
		sc := h.Base
		sc.Seed = seed
		inst, err := sc.Build()
		if err != nil {
			return nil, err
		}
		coord, err := core.NewCoordinator(inst, core.Config{Sub: h.Sub})
		if err != nil {
			return nil, err
		}
		seq, err := coord.Run()
		if err != nil {
			return nil, err
		}
		jcoord, err := core.NewCoordinator(inst, core.Config{Sub: h.Sub, Engine: core.EngineJacobi})
		if err != nil {
			return nil, err
		}
		jac, err := jcoord.Run()
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(seed,
			seq.Solution.Cost.Total, seq.Sweeps,
			jac.Solution.Cost.Total, jac.Sweeps,
			jac.Solution.Cost.Total/seq.Solution.Cost.Total)
	}
	tb.AddNote("Jacobi rounds let all SBSs compute concurrently on stale state;" +
		" the BS repairs overserved demands proportionally")
	return tb, nil
}

// MultiBSAblation (E12) makes the paper's "easily extended for multiple
// BSs" claim measurable: the same scenario coordinated by one, two and
// three BS regions (SBSs split round-robin), reporting cost and rounds.
func (h Harness) MultiBSAblation() (*metrics.Table, error) {
	tb := metrics.NewTable("E12 — multi-BS coordination (cost / rounds per region count)",
		"seed", "1 BS cost", "1 BS rounds", "2 BS cost", "2 BS rounds", "3 BS cost", "3 BS rounds")
	for _, seed := range h.Seeds {
		sc := h.Base
		sc.Seed = seed
		inst, err := sc.Build()
		if err != nil {
			return nil, err
		}
		row := []any{seed}
		for _, regions := range [][][]int{
			{{0, 1, 2}},
			{{0, 2}, {1}},
			{{0}, {1}, {2}},
		} {
			res, err := core.RunMultiBS(inst, core.MultiBSConfig{Regions: regions, Sub: h.Sub})
			if err != nil {
				return nil, err
			}
			row = append(row, res.Solution.Cost.Total, res.Sweeps)
		}
		tb.MustAddRow(row...)
	}
	tb.AddNote("regions exchange only privatizable regional aggregates once per round;" +
		" cross-region duplication is reconciled proportionally")
	return tb, nil
}

// FluidValidation (E13) replays a packet-level request stream against the
// solved fluid policy and reports model-vs-realized cost agreement — the
// sanity check that the paper's fractional-routing relaxation describes a
// system that actually serves discrete requests.
func (h Harness) FluidValidation(requests int) (*metrics.Table, error) {
	if requests <= 0 {
		requests = 40000
	}
	tb := metrics.NewTable("E13 — fluid model vs packet-level replay",
		"seed", "model cost", "realized cost", "error (%)", "edge-served", "fallbacks")
	for _, seed := range h.Seeds {
		sc := h.Base
		sc.Seed = seed
		inst, err := sc.Build()
		if err != nil {
			return nil, err
		}
		coord, err := core.NewCoordinator(inst, core.Config{Sub: h.Sub})
		if err != nil {
			return nil, err
		}
		res, err := coord.Run()
		if err != nil {
			return nil, err
		}
		report, err := sim.ValidatePolicy(inst, res.Solution, sim.ValidateOptions{
			Requests: requests, Seed: seed * 13,
		})
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(seed, report.ModelCost.Total, report.RealizedCost.Total,
			report.RelativeError*100, report.EdgeServed, report.Fallbacks)
	}
	tb.AddNote("requests dispatched to SBSs with probability equal to their routing share;" +
		" bandwidth exhaustion spills to the BS")
	return tb, nil
}

// ReconstructionAttack (E15) quantifies the leak LPPM exists to plug: an
// observer of the BS broadcast channel solves B_n = Y − y_n across one
// converged sweep and recovers each SBS's routing policy. Without LPPM the
// recovery is exact (error 0); the table reports the relative L1
// reconstruction error as ε varies.
func (h Harness) ReconstructionAttack(epsilons []float64) (*metrics.Table, error) {
	if len(epsilons) == 0 {
		epsilons = []float64{0.01, 0.1, 1, 10, 100}
	}
	sc := h.Base
	sc.Seed = h.Seeds[0]
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}

	measure := func(privacy *core.PrivacyConfig) (float64, error) {
		cfg := core.Config{Sub: h.Sub, Privacy: privacy}
		if privacy != nil {
			cfg.MaxSweeps = lppmMaxSweeps
		}
		_, obs, truth, err := attack.RunWithObserver(inst, cfg)
		if err != nil {
			return 0, err
		}
		sweeps := obs.CompleteSweeps()
		if len(sweeps) == 0 {
			return 0, nil
		}
		last := sweeps[len(sweeps)-1]
		recovered, err := obs.Reconstruct(last)
		if err != nil {
			return 0, err
		}
		truthPolicy, err := truth.Truth(last)
		if err != nil {
			return 0, err
		}
		return attack.ReconstructionError(inst, truthPolicy, recovered)
	}

	tb := metrics.NewTable("E15 — broadcast-channel reconstruction attack (relative L1 error)",
		"mechanism", "reconstruction error")
	clean, err := measure(nil)
	if err != nil {
		return nil, err
	}
	tb.MustAddRow("no LPPM", clean)
	for _, eps := range epsilons {
		e, err := measure(&core.PrivacyConfig{
			Epsilon: eps, Delta: h.Delta,
			Rng: rand.New(rand.NewSource(sc.Seed * 41)),
		})
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(metricsEps(eps), e)
	}
	tb.AddNote("error 0 = the attacker recovers every SBS's full routing policy exactly;" +
		" the no-LPPM row demonstrates the §IV threat is real, not hypothetical")
	return tb, nil
}

// CachePolicyAblation (E16) compares replacement families in the online
// replay: the same request stream, attachment draws and bandwidth rules,
// with only the eviction policy changing. LRFU is the paper's baseline;
// the others calibrate how much of its behaviour is the policy versus the
// reactive operating regime.
func (h Harness) CachePolicyAblation() (*metrics.Table, error) {
	sc := h.Base
	sc.Seed = h.Seeds[0]
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E16 — replacement-policy ablation (online replay)",
		"policy", "online cost", "hit rate (%)")
	for _, name := range cache.PolicyNames() {
		res, err := baseline.PlanLRFU(inst, baseline.LRFUConfig{
			Policy: name, Seed: sc.Seed * 104729,
		})
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(name, res.OnlineCost.Total, res.HitRate*100)
	}
	tb.AddNote("identical stream and attachment randomness across rows; only eviction differs")
	return tb, nil
}

// metricsEps renders an ε row label.
func metricsEps(eps float64) string {
	return "LPPM ε=" + strconv.FormatFloat(eps, 'g', -1, 64)
}

// ChurnStudy (E14) runs the time-slotted popularity-churn extension:
// per-slot costs of re-planning with Algorithm 1 versus keeping the slot-0
// caches versus the online LRFU baseline, plus the cache-refresh traffic
// re-planning causes.
func (h Harness) ChurnStudy(slots, swapsPerSlot int) (*metrics.Table, error) {
	if slots <= 0 {
		slots = 6
	}
	if swapsPerSlot < 0 {
		swapsPerSlot = 0
	}
	sc := h.Base
	sc.Seed = h.Seeds[0]
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}
	res, err := dynamic.RunChurnStudy(inst, dynamic.ChurnConfig{
		Slots: slots, SwapsPerSlot: swapsPerSlot, Seed: sc.Seed * 17,
	}, h.Sub)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E14 — popularity churn over time slots",
		"slot", "replan", "static caches", "LRFU online", "cache changes")
	for _, s := range res.Slots {
		tb.MustAddRow(s.Slot+1, s.Replan, s.Static, s.LRFU, s.CacheChanges)
	}
	tb.AddNote("%d random popularity swaps per slot; horizon totals: replan %.4g,"+
		" static %.4g (+%.1f%%), LRFU %.4g; %d total cache changes",
		swapsPerSlot, res.TotalReplan, res.TotalStatic,
		stats.RelativeChange(res.TotalStatic, res.TotalReplan)*100,
		res.TotalLRFU, res.TotalCacheChanges)
	return tb, nil
}

// NoiseFamilyAblation (E11) compares the cost overhead of the bounded
// Laplace (LPPM), truncated Gaussian and uniform noise families at equal
// noise-interval factor δ. The Gaussian calibration requires ε < 1, so the
// sweep covers small budgets only.
func (h Harness) NoiseFamilyAblation(epsilons []float64) (*metrics.Table, error) {
	if len(epsilons) == 0 {
		epsilons = []float64{0.01, 0.1, 0.5, 0.9}
	}
	tb := metrics.NewTable("E11 — noise-family ablation (cost overhead vs non-private, %)",
		"epsilon", "laplace (LPPM)", "gaussian", "uniform")

	sc := h.Base
	sc.Seed = h.Seeds[0]
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}
	coord, err := core.NewCoordinator(inst, core.Config{Sub: h.Sub})
	if err != nil {
		return nil, err
	}
	clean, err := coord.Run()
	if err != nil {
		return nil, err
	}

	overhead := func(mech core.NoiseMechanism, eps float64) (float64, error) {
		cfg := core.Config{Sub: h.Sub, MaxSweeps: lppmMaxSweeps}
		cfg.Privacy = &core.PrivacyConfig{
			Epsilon:   eps,
			Delta:     h.Delta,
			Rng:       rand.New(rand.NewSource(sc.Seed * 31)),
			Mechanism: mech,
		}
		c, err := core.NewCoordinator(inst, cfg)
		if err != nil {
			return 0, err
		}
		res, err := c.Run()
		if err != nil {
			return 0, err
		}
		return stats.RelativeChange(res.Solution.Cost.Total, clean.Solution.Cost.Total) * 100, nil
	}

	for _, eps := range epsilons {
		lap, err := overhead(core.MechanismLaplace, eps)
		if err != nil {
			return nil, err
		}
		gau, err := overhead(core.MechanismGaussian, eps)
		if err != nil {
			return nil, err
		}
		uni, err := overhead(core.MechanismUniform, eps)
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(eps, lap, gau, uni)
	}
	tb.AddNote("uniform noise ignores ε entirely (the naive 'random noise' the paper's §IV warns" +
		" against): its overhead never shrinks as the privacy budget loosens")
	return tb, nil
}
