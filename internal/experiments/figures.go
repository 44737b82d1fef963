package experiments

import (
	"fmt"

	"edgecache/internal/baseline"
	"edgecache/internal/core"
	"edgecache/internal/metrics"
	"edgecache/internal/model"
	"edgecache/internal/stats"
)

// Harness runs the figure experiments: one scenario family, a seed set to
// average over, and the algorithm configuration shared by every run.
type Harness struct {
	// Base is the scenario template; sweeps override single fields.
	Base Scenario
	// Seeds are the scenario seeds averaged per data point.
	Seeds []int64
	// Sub configures the per-SBS solver.
	Sub core.SubproblemConfig
	// Delta is LPPM's Laplace component factor δ (paper: 0.5).
	Delta float64
	// Epsilon is the privacy budget for the non-Fig. 3 experiments
	// (paper: 0.1).
	Epsilon float64
}

// DefaultHarness mirrors the paper's settings with three seeds.
func DefaultHarness() Harness {
	return Harness{
		Base:    DefaultScenario(),
		Seeds:   []int64{1, 2, 3},
		Sub:     core.DefaultSubproblemConfig(),
		Delta:   0.5,
		Epsilon: 0.1,
	}
}

// point is the cost triple of one experiment point.
type point struct {
	lppm, optimum, lrfu float64
}

// seedRun holds the ε-independent arms for one instance: the non-private
// Algorithm 1 result ("Optimum" in the paper's figures) and the LRFU
// online replay. LPPM is evaluated per ε on top.
type seedRun struct {
	inst    *model.Instance
	seed    int64
	optimum float64
	lrfu    float64
}

// lppmMaxSweeps bounds the LPPM runs: under noise the γ stop rule rarely
// fires (every sweep redraws noise), and the cost trajectory flattens
// within a handful of sweeps (experiment E8).
const lppmMaxSweeps = 12

// prepareSeed builds the instance and runs the ε-independent arms. The
// Optimum arm is a single fixed-order run of Algorithm 1, exactly as the
// paper's figures use it ("the distributed algorithm (Algorithm 1) which
// is the optimal solution of the problem", §V-A). Because the coupling
// constraint (4) makes the sweep order matter (DESIGN.md §4), a noisy LPPM
// run can very occasionally land marginally below this reference; the
// restart extension that removes the order dependence is measured
// separately by BenchmarkRestartAblation.
func (h Harness) prepareSeed(sc Scenario) (*seedRun, error) {
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}
	coord, err := core.NewCoordinator(inst, core.Config{Sub: h.Sub})
	if err != nil {
		return nil, err
	}
	opt, err := coord.Run()
	if err != nil {
		return nil, err
	}
	lrfu, err := baseline.PlanLRFU(inst, baseline.LRFUConfig{Seed: sc.Seed * 104729})
	if err != nil {
		return nil, err
	}
	return &seedRun{
		inst:    inst,
		seed:    sc.Seed,
		optimum: opt.Solution.Cost.Total,
		lrfu:    lrfu.OnlineCost.Total,
	}, nil
}

// runLPPM evaluates the privacy arm on a prepared seed.
func (h Harness) runLPPM(run *seedRun, epsilon float64) (float64, error) {
	privCfg := core.Config{
		Sub:       h.Sub,
		MaxSweeps: lppmMaxSweeps,
		Privacy: &core.PrivacyConfig{
			Epsilon: epsilon,
			Delta:   h.Delta,
			Noise:   core.NewNoiseSource(run.seed * 7919),
		},
	}
	privCoord, err := core.NewCoordinator(run.inst, privCfg)
	if err != nil {
		return 0, err
	}
	priv, err := privCoord.Run()
	if err != nil {
		return 0, err
	}
	return priv.Solution.Cost.Total, nil
}

// prepareSeeds builds the per-seed ε-independent arms for one sweep point.
func (h Harness) prepareSeeds(mutate func(*Scenario)) ([]*seedRun, error) {
	var runs []*seedRun
	for _, seed := range h.Seeds {
		sc := h.Base
		sc.Seed = seed
		if mutate != nil {
			mutate(&sc)
		}
		run, err := h.prepareSeed(sc)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// averageAt evaluates the LPPM arm at one ε over prepared seeds and
// averages all three arms.
func (h Harness) averageAt(runs []*seedRun, epsilon float64) (point, error) {
	var lppm, opt, lrfu []float64
	for _, run := range runs {
		cost, err := h.runLPPM(run, epsilon)
		if err != nil {
			return point{}, err
		}
		lppm = append(lppm, cost)
		opt = append(opt, run.optimum)
		lrfu = append(lrfu, run.lrfu)
	}
	return point{
		lppm:    stats.Mean(lppm),
		optimum: stats.Mean(opt),
		lrfu:    stats.Mean(lrfu),
	}, nil
}

// averagePoint prepares seeds and evaluates one (sweep setting, ε) point.
func (h Harness) averagePoint(mutate func(*Scenario), epsilon float64) (point, error) {
	runs, err := h.prepareSeeds(mutate)
	if err != nil {
		return point{}, err
	}
	return h.averageAt(runs, epsilon)
}

// Fig2 tabulates the synthetic trending-video request distribution: the
// view counts of the first 20 videos, the series the paper's Fig. 2 plots.
func (h Harness) Fig2() (*metrics.Table, error) {
	sc := h.Base
	sc.Seed = h.Seeds[0]
	views, err := sc.Views()
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Fig. 2 — request distribution of trending videos (synthetic trace)",
		"video rank", "views in 30 min")
	limit := 20
	if limit > len(views) {
		limit = len(views)
	}
	for k := 0; k < limit; k++ {
		tb.MustAddRow(k+1, views[k])
	}
	tb.AddNote("synthetic Zipf-shaped substitute for the paper's Dec 18 2018 trace (head %v, tail %v)",
		views[0], views[len(views)-1])
	return tb, nil
}

// Fig3 sweeps the privacy budget ε (paper defaults {0.01, 0.1, 1, 10, 100})
// and reports the mean total serving cost of LPPM, Optimum and LRFU, plus
// LPPM's relative gap to the optimum.
func (h Harness) Fig3(epsilons []float64) (*metrics.Table, error) {
	if len(epsilons) == 0 {
		epsilons = []float64{0.01, 0.1, 1, 10, 100}
	}
	tb := metrics.NewTable("Fig. 3 — total serving cost vs privacy budget ε",
		"epsilon", "LPPM", "Optimum", "LRFU", "LPPM vs opt (%)")
	runs, err := h.prepareSeeds(nil)
	if err != nil {
		return nil, err
	}
	var gapSum, lrfuGapSum float64
	for _, eps := range epsilons {
		p, err := h.averageAt(runs, eps)
		if err != nil {
			return nil, err
		}
		gap := stats.RelativeChange(p.lppm, p.optimum) * 100
		gapSum += gap
		lrfuGapSum += stats.RelativeChange(p.lppm, p.lrfu) * 100
		tb.MustAddRow(eps, p.lppm, p.optimum, p.lrfu, gap)
	}
	tb.AddNote("averages over %d seeds; paper reports +10.1%% at ε=0.01 falling to +1.2%% at ε=100,"+
		" overall +6.6%% vs optimum and −17.3%% vs LRFU", len(h.Seeds))
	tb.AddNote("measured means: LPPM %.1f%% above optimum, %.1f%% vs LRFU",
		gapSum/float64(len(epsilons)), lrfuGapSum/float64(len(epsilons)))
	return tb, nil
}

// Fig4 sweeps the number of MU groups (paper: 20..40) at ε = h.Epsilon.
// TargetDemand is held fixed: the same aggregate traffic is spread over
// more locations, matching the paper's modest cost growth.
func (h Harness) Fig4(groupCounts []int) (*metrics.Table, error) {
	if len(groupCounts) == 0 {
		groupCounts = []int{20, 25, 30, 35, 40}
	}
	tb := metrics.NewTable("Fig. 4 — total serving cost vs number of MUs",
		"MU groups", "LPPM", "Optimum", "LRFU", "LPPM vs opt (%)")
	for _, g := range groupCounts {
		g := g
		p, err := h.averagePoint(func(sc *Scenario) { sc.Groups = g }, h.Epsilon)
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(g, p.lppm, p.optimum, p.lrfu, stats.RelativeChange(p.lppm, p.optimum)*100)
	}
	tb.AddNote("ε=%.2g, δ=%.2g, %d links; paper reports +5.1%% LPPM growth from 20 to 40 MUs,"+
		" −11.0%% vs LRFU, +9.1%% vs optimum", h.Epsilon, h.Delta, h.Base.LinkCount)
	return tb, nil
}

// Fig5 sweeps the total number of MU-SBS links at ε = h.Epsilon.
func (h Harness) Fig5(linkCounts []int) (*metrics.Table, error) {
	if len(linkCounts) == 0 {
		linkCounts = []int{20, 30, 40, 50, 60}
	}
	tb := metrics.NewTable("Fig. 5 — total serving cost vs number of links",
		"links", "LPPM", "Optimum", "LRFU", "LPPM vs opt (%)")
	for _, l := range linkCounts {
		l := l
		p, err := h.averagePoint(func(sc *Scenario) { sc.LinkCount = l }, h.Epsilon)
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(l, p.lppm, p.optimum, p.lrfu, stats.RelativeChange(p.lppm, p.optimum)*100)
	}
	tb.AddNote("ε=%.2g, δ=%.2g, %d MU groups; paper reports −11.7%% vs LRFU, +8.5%% vs optimum,"+
		" with diminishing returns at high link counts", h.Epsilon, h.Delta, h.Base.Groups)
	return tb, nil
}

// Fig6 sweeps the per-SBS bandwidth at ε = h.Epsilon.
func (h Harness) Fig6(bandwidths []float64) (*metrics.Table, error) {
	if len(bandwidths) == 0 {
		bandwidths = []float64{250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2500}
	}
	tb := metrics.NewTable("Fig. 6 — total serving cost vs SBS bandwidth",
		"bandwidth", "LPPM", "Optimum", "LRFU", "LPPM vs opt (%)")
	for _, b := range bandwidths {
		b := b
		p, err := h.averagePoint(func(sc *Scenario) { sc.Bandwidth = b }, h.Epsilon)
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(b, p.lppm, p.optimum, p.lrfu, stats.RelativeChange(p.lppm, p.optimum)*100)
	}
	tb.AddNote("ε=%.2g, δ=%.2g; paper reports near-linear decrease until ~1500 then flattening,"+
		" −15.4%% vs LRFU, +13.8%% vs optimum", h.Epsilon, h.Delta)
	return tb, nil
}

// Summary reproduces the headline percentages of §V across all sweeps.
func (h Harness) Summary() (*metrics.Table, error) {
	type sweep struct {
		name  string
		paper string
		run   func() (lppmVsOpt, lppmVsLRFU float64, err error)
	}
	relMeans := func(points []point) (float64, float64) {
		var vsOpt, vsLRFU []float64
		for _, p := range points {
			vsOpt = append(vsOpt, stats.RelativeChange(p.lppm, p.optimum)*100)
			vsLRFU = append(vsLRFU, stats.RelativeChange(p.lppm, p.lrfu)*100)
		}
		return stats.Mean(vsOpt), stats.Mean(vsLRFU)
	}
	sweeps := []sweep{
		{
			name:  "Fig. 3 (ε sweep)",
			paper: "+6.6% vs opt, −17.3% vs LRFU",
			run: func() (float64, float64, error) {
				runs, err := h.prepareSeeds(nil)
				if err != nil {
					return 0, 0, err
				}
				var pts []point
				for _, eps := range []float64{0.01, 0.1, 1, 10, 100} {
					p, err := h.averageAt(runs, eps)
					if err != nil {
						return 0, 0, err
					}
					pts = append(pts, p)
				}
				a, b := relMeans(pts)
				return a, b, nil
			},
		},
		{
			name:  "Fig. 4 (MU sweep)",
			paper: "+9.1% vs opt, −11.0% vs LRFU",
			run: func() (float64, float64, error) {
				var pts []point
				for _, g := range []int{20, 25, 30, 35, 40} {
					g := g
					p, err := h.averagePoint(func(sc *Scenario) { sc.Groups = g }, h.Epsilon)
					if err != nil {
						return 0, 0, err
					}
					pts = append(pts, p)
				}
				a, b := relMeans(pts)
				return a, b, nil
			},
		},
		{
			name:  "Fig. 5 (link sweep)",
			paper: "+8.5% vs opt, −11.7% vs LRFU",
			run: func() (float64, float64, error) {
				var pts []point
				for _, l := range []int{20, 30, 40, 50, 60} {
					l := l
					p, err := h.averagePoint(func(sc *Scenario) { sc.LinkCount = l }, h.Epsilon)
					if err != nil {
						return 0, 0, err
					}
					pts = append(pts, p)
				}
				a, b := relMeans(pts)
				return a, b, nil
			},
		},
		{
			name:  "Fig. 6 (bandwidth sweep)",
			paper: "+13.8% vs opt, −15.4% vs LRFU",
			run: func() (float64, float64, error) {
				var pts []point
				for _, bw := range []float64{250, 500, 1000, 1500, 2000, 2500} {
					bw := bw
					p, err := h.averagePoint(func(sc *Scenario) { sc.Bandwidth = bw }, h.Epsilon)
					if err != nil {
						return 0, 0, err
					}
					pts = append(pts, p)
				}
				a, b := relMeans(pts)
				return a, b, nil
			},
		},
	}
	tb := metrics.NewTable("§V summary — LPPM relative cost across sweeps",
		"sweep", "LPPM vs optimum (%)", "LPPM vs LRFU (%)", "paper")
	for _, s := range sweeps {
		vsOpt, vsLRFU, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		tb.MustAddRow(s.name, vsOpt, vsLRFU, s.paper)
	}
	return tb, nil
}

// Convergence (E8) records the per-sweep cost history of one run with and
// without LPPM, demonstrating Theorem 3's convergence claim.
func (h Harness) Convergence() (*metrics.Table, error) {
	sc := h.Base
	sc.Seed = h.Seeds[0]
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}
	coord, err := core.NewCoordinator(inst, core.Config{Sub: h.Sub, Gamma: 1e-9, MaxSweeps: 12})
	if err != nil {
		return nil, err
	}
	clean, err := coord.Run()
	if err != nil {
		return nil, err
	}
	privCoord, err := core.NewCoordinator(inst, core.Config{
		Sub: h.Sub, Gamma: 1e-9, MaxSweeps: 12,
		Privacy: &core.PrivacyConfig{Epsilon: h.Epsilon, Delta: h.Delta, Noise: core.NewNoiseSource(99)},
	})
	if err != nil {
		return nil, err
	}
	noisy, err := privCoord.Run()
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E8 — convergence of Algorithm 1 (total cost per sweep)",
		"sweep", "without LPPM", fmt.Sprintf("with LPPM (ε=%.2g, δ=%.2g)", h.Epsilon, h.Delta))
	rows := len(clean.History)
	if len(noisy.History) > rows {
		rows = len(noisy.History)
	}
	for i := 0; i < rows; i++ {
		cleanCell, noisyCell := "-", "-"
		if i < len(clean.History) {
			cleanCell = fmt.Sprintf("%.2f", clean.History[i])
		}
		if i < len(noisy.History) {
			noisyCell = fmt.Sprintf("%.2f", noisy.History[i])
		}
		tb.MustAddRow(i+1, cleanCell, noisyCell)
	}
	return tb, nil
}

// OptimalityGap (E7) compares Algorithm 1 against the centralized MILP
// oracle on down-scaled instances (the oracle is exponential in N·F).
func (h Harness) OptimalityGap(trials int) (*metrics.Table, error) {
	if trials <= 0 {
		trials = 5
	}
	tb := metrics.NewTable("E7 — Algorithm 1 vs centralized MILP optimum (small instances)",
		"trial", "distributed", "with restarts", "MILP optimum", "gap (%)", "restart gap (%)")
	var gaps, restartGaps []float64
	for trial := 0; trial < trials; trial++ {
		sc := h.Base
		sc.Seed = h.Seeds[0] + int64(trial)
		sc.Groups = 6
		sc.Videos = 8
		sc.LinkCount = 10
		sc.CachePerSBS = 3
		sc.Bandwidth = 200
		sc.TargetDemand = 600
		inst, err := sc.Build()
		if err != nil {
			return nil, err
		}
		opt, err := baseline.CentralizedMILP(inst, baseline.MILPOptions{})
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
		multi, err := core.NewCoordinator(inst, core.Config{
			Sub: h.Sub, Restarts: 6, RestartSeed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		mres, err := multi.Run()
		if err != nil {
			return nil, err
		}
		gap := stats.RelativeChange(res.Solution.Cost.Total, opt.Cost.Total) * 100
		restartGap := stats.RelativeChange(mres.Solution.Cost.Total, opt.Cost.Total) * 100
		gaps = append(gaps, gap)
		restartGaps = append(restartGaps, restartGap)
		tb.MustAddRow(trial+1, res.Solution.Cost.Total, mres.Solution.Cost.Total,
			opt.Cost.Total, gap, restartGap)
	}
	tb.AddNote("mean gap %.3f%% (%.3f%% with 6 shuffled-order restarts); the coupling"+
		" constraint (4) breaks the Cartesian-product assumption behind Theorem 2, so the"+
		" fixed-order sweep can stall in order-dependent equilibria (DESIGN.md §4)",
		stats.Mean(gaps), stats.Mean(restartGaps))
	return tb, nil
}
