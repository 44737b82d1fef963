package edgecache

// This file is the benchmark harness required by DESIGN.md: one benchmark
// per paper figure (Fig. 2-6), one per extension experiment (E7-E11), and
// micro-benchmarks for the load-bearing components. Figure benchmarks run
// the same generators as cmd/benchfig on a single seed so one benchmark
// iteration is one full figure regeneration; run cmd/benchfig for the
// multi-seed tables recorded in EXPERIMENTS.md.

import (
	"context"
	"math/rand"
	"testing"

	"edgecache/internal/baseline"
	"edgecache/internal/cache"
	"edgecache/internal/core"
	"edgecache/internal/dp"
	"edgecache/internal/experiments"
	"edgecache/internal/lp"
	"edgecache/internal/sim"
	"edgecache/internal/trace"
)

// benchHarness is the single-seed harness used by the figure benchmarks.
func benchHarness() experiments.Harness {
	h := experiments.DefaultHarness()
	h.Seeds = []int64{1}
	return h
}

func BenchmarkFig2(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig3(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig4(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig5(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig6(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalityGap(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.OptimalityGap(3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvergence(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.Convergence(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestartAblation(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.RestartAblation(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiAblation(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.JacobiAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoiseFamilies(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.NoiseFamilyAblation(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiBS(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.MultiBSAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidValidation(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.FluidValidation(20000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructionAttack(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReconstructionAttack(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachePolicies(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.CachePolicyAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChurnStudy(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.ChurnStudy(4, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks -------------------------------------------------

func benchInstance(b *testing.B) *Instance {
	b.Helper()
	inst, err := DefaultScenario().Build()
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkSubproblemSolve measures one P_n dual-decomposition solve at
// the paper's default scale (the inner loop of everything).
func BenchmarkSubproblemSolve(b *testing.B) {
	inst := benchInstance(b)
	sub, err := core.NewSubproblem(inst, 0, core.DefaultSubproblemConfig())
	if err != nil {
		b.Fatal(err)
	}
	yMinus := inst.NewUFMat()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sub.Solve(yMinus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm1 measures a full in-process run on the paper-default
// scenario.
func BenchmarkAlgorithm1(b *testing.B) {
	inst := benchInstance(b)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm1Jacobi measures the asynchronous variant.
func BenchmarkAlgorithm1Jacobi(b *testing.B) {
	inst := benchInstance(b)
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineJacobi
	coord, err := core.NewCoordinator(inst, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedInmem measures a full protocol run with real agents
// over the in-memory transport.
func BenchmarkDistributedInmem(b *testing.B) {
	inst := benchInstance(b)
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunInmem(context.Background(), inst, sim.BSConfig{},
			core.DefaultSubproblemConfig(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLRFUOnlineReplay measures the baseline's trace replay.
func BenchmarkLRFUOnlineReplay(b *testing.B) {
	inst := benchInstance(b)
	for i := 0; i < b.N; i++ {
		if _, err := baseline.PlanLRFU(inst, baseline.LRFUConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplex measures the LP substrate on a dense 20x40 problem.
func BenchmarkSimplex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := lp.NewProblem(40)
	for j := 0; j < 40; j++ {
		p.Obj[j] = rng.Float64()*10 - 5
		p.SetBounds(j, 0, 1)
	}
	for r := 0; r < 20; r++ {
		coef := make([]float64, 40)
		for j := range coef {
			coef[j] = rng.Float64() * 3
		}
		p.AddConstraint(coef, lp.LE, 10+rng.Float64()*20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(p)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// BenchmarkMILP measures branch and bound on a 14-item binary knapsack.
func BenchmarkMILP(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := lp.NewProblem(14)
	p.Maximize = true
	coef := make([]float64, 14)
	for j := 0; j < 14; j++ {
		p.Obj[j] = 1 + rng.Float64()*9
		p.SetBounds(j, 0, 1)
		p.MarkInteger(j)
		coef[j] = 1 + rng.Float64()*4
	}
	p.AddConstraint(coef, lp.LE, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.SolveMILP(p, lp.MILPOptions{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// BenchmarkBoundedLaplace measures the LPPM noise draw.
func BenchmarkBoundedLaplace(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	bl, err := dp.NewBoundedLaplace(10, 0, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Sample(rng)
	}
}

// BenchmarkLRFUCacheAccess measures the raw cache policy.
func BenchmarkLRFUCacheAccess(b *testing.B) {
	lrfu, err := cache.NewLRFU(64, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	keys := make([]int, 4096)
	for i := range keys {
		keys[i] = rng.Intn(512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lrfu.Access(keys[i%len(keys)])
	}
}

// BenchmarkTraceStream measures workload expansion.
func BenchmarkTraceStream(b *testing.B) {
	views, err := trace.TrendingVideos(trace.DefaultTrendingConfig())
	if err != nil {
		b.Fatal(err)
	}
	demand, err := trace.DemandMatrix(views, 30, 4500/600000.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Stream(demand, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
