package core

import (
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

// benchScale builds a random instance at the given scale with the paper's
// structure (d̂ ≫ d, ~60% link density, skewed demand).
func benchScale(n, u, f int) *model.Instance {
	rng := rand.New(rand.NewSource(99))
	return randomInstance(rng, n, u, f)
}

// BenchmarkSweep measures full Algorithm 1 runs with a fixed sweep budget:
// the Gauss-Seidel DUA sweep is the system's hot path. The "paper" scale is
// the §V-A default (N=3, U=30, F=50); "scaled" is the scaling-study regime
// (N=20, U=200, F=500) from the edge-caching literature's larger sweeps.
func BenchmarkSweep(b *testing.B) {
	for _, tc := range []struct {
		name    string
		n, u, f int
		sweeps  int
	}{
		{"paper_N3_U30_F50", 3, 30, 50, 4},
		{"scaled_N20_U200_F500", 20, 200, 500, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			inst := benchScale(tc.n, tc.u, tc.f)
			cfg := DefaultConfig()
			cfg.MaxSweeps = tc.sweeps
			cfg.Gamma = 1e-300 // exhaust the sweep budget: fixed work per iteration
			coord, err := NewCoordinator(inst, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubproblemSolveCore measures one warm P_n solve — the inner loop
// of every sweep — at paper scale.
func BenchmarkSubproblemSolveCore(b *testing.B) {
	inst := benchScale(3, 30, 50)
	sub, err := NewSubproblem(inst, 0, DefaultSubproblemConfig())
	if err != nil {
		b.Fatal(err)
	}
	yMinus := inst.NewUFMat()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sub.Solve(yMinus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubproblemSolveDense measures one warm P_n solve at the dense
// shape (N=50, U=100, F=100, 60% links; about 4,000 items per SBS)
// against a partly served y₋ₙ, where the routing knapsack dominates.
func BenchmarkSubproblemSolveDense(b *testing.B) {
	inst := benchScale(50, 100, 100)
	sub, err := NewSubproblem(inst, 1, DefaultSubproblemConfig())
	if err != nil {
		b.Fatal(err)
	}
	yMinus := inst.NewUFMat()
	fillYMinus(yMinus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sub.Solve(yMinus)
		if err != nil {
			b.Fatal(err)
		}
		allocSink = res.Gain
	}
}

// BenchmarkSubproblemSolveSparse measures one warm P_n solve at the sparse
// shape (N=100, U=60, F=60, 5% links, drawn as edgebench draws its sparse
// workload; about a hundred items per SBS) against a partly served y₋ₙ,
// where primal recovery outweighs the dual loop.
func BenchmarkSubproblemSolveSparse(b *testing.B) {
	inst := shapeInstance(99, 100, 60, 60, 0.05)
	sub, err := NewSubproblem(inst, 2, DefaultSubproblemConfig()) // 131 items
	if err != nil {
		b.Fatal(err)
	}
	yMinus := inst.NewUFMat()
	fillYMinus(yMinus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sub.Solve(yMinus)
		if err != nil {
			b.Fatal(err)
		}
		allocSink = res.Gain
	}
}

// denseShape is edgebench's dense workload instance: N=50, U=100, F=100,
// 60% links, seed 99.
func denseShape() *model.Instance { return shapeInstance(99, 50, 100, 100, 0.6) }

// BenchmarkDenseRound measures the round edgebench's dense workload runs:
// all 50 SBSs of its instance solved against an empty y₋ₙ, the first
// Jacobi round. /warm solves the same 50 solvers every op, so each solve
// finds its block bounds filled; /cold builds fresh solvers outside the
// timer and solves each once, as the dense workload does, so each op
// includes every solver's first-solve work. In a CPU profile of /warm on
// 2 vCPUs, the dual loop is half of each solve (its fills 20%, cachingStep
// 9%) and primal recovery the other half (its walks 40%); the lazy
// capacity reads, 7-9% of the items, are 3%.
func BenchmarkDenseRound(b *testing.B) {
	inst := denseShape()
	build := func(subs []*Subproblem) {
		for n := range subs {
			sub, err := NewSubproblem(inst, n, DefaultSubproblemConfig())
			if err != nil {
				b.Fatal(err)
			}
			subs[n] = sub
		}
	}
	round := func(subs []*Subproblem, yMinus model.Mat) {
		for _, sub := range subs {
			res, err := sub.Solve(yMinus)
			if err != nil {
				b.Fatal(err)
			}
			allocSink = res.Gain
		}
	}
	yMinus := inst.NewUFMat()
	subs := make([]*Subproblem, inst.N)
	b.Run("warm", func(b *testing.B) {
		build(subs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(subs, yMinus)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			build(subs)
			b.StartTimer()
			round(subs, yMinus)
		}
	})
}

// BenchmarkDenseRun measures the run edgebench's dense workload times:
// one Run of a fresh coordinator, one parallel Jacobi round on two
// workers, at the dense shape. Each op builds its coordinator outside the
// timer, so the op is the first round's solves, the pool's start, the
// merge and the cost evaluation. Its B/op is the sweep state the result
// keeps, one N×U×F routing tensor and small change (TestRunAllocs gates
// it).
func BenchmarkDenseRun(b *testing.B) {
	inst := denseShape()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		coord, err := NewCoordinator(inst, denseRunCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := coord.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		coord.Close()
		allocSink = res.Solution.Cost.Total
		b.StartTimer()
	}
}

// BenchmarkNewCoordinatorDense measures setup at the dense shape: one
// validation and 50 per-SBS solvers with their workspaces, built inline
// for the Gauss-Seidel engine (/gs) and on the parallel engine's two
// workers (/parallel-2, edgebench's dense configuration). Its B/op is the
// solvers' state plus the engine's own buffers: the Gauss-Seidel y₋ₙ
// scratch, or the pool's per-worker y₋ₙ scratch and next-round policy.
func BenchmarkNewCoordinatorDense(b *testing.B) {
	inst := denseShape()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"gs", DefaultConfig()},
		{"parallel-2", parallelCfg(2)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coord, err := NewCoordinator(inst, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				coord.Close()
			}
		})
	}
}
