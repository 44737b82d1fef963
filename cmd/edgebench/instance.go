package main

import (
	"math/rand"

	"edgecache/internal/model"
)

// genInstance draws one benchmark instance. The distribution and the draw
// order are those of cmd/benchfig's benchInstance (demand present with
// probability 0.7 and uniform on [0,20), backhaul cost on [100,150), edge
// cost on [1,4), cache capacity uniform on [1,F], bandwidth on [5,45)), with
// the link probability as a parameter: seed 99 at density 0.6 reproduces
// the instance behind BENCH_parallel.json, and at density 0.05 the one
// behind BENCH_incremental.json.
func genInstance(seed int64, n, u, f int, density float64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &model.Instance{
		N: n, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, n),
		CacheCap:  make([]int, n),
		Bandwidth: make([]float64, n),
		EdgeCost:  make([][]float64, n),
		BSCost:    make([]float64, u),
	}
	for i := 0; i < u; i++ {
		inst.Demand[i] = make([]float64, f)
		for j := 0; j < f; j++ {
			if rng.Float64() < 0.7 {
				inst.Demand[i][j] = rng.Float64() * 20
			}
		}
		inst.BSCost[i] = 100 + rng.Float64()*50
	}
	for i := 0; i < n; i++ {
		inst.Links[i] = make([]bool, u)
		inst.EdgeCost[i] = make([]float64, u)
		for j := 0; j < u; j++ {
			inst.Links[i][j] = rng.Float64() < density
			inst.EdgeCost[i][j] = 1 + rng.Float64()*3
		}
		inst.CacheCap[i] = 1 + rng.Intn(f)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

// solveItems returns, per SBS, the number of servable (u,f) pairs — linked
// user groups times contents with positive demand. core.NewSubproblem
// builds exactly this item list, so it is the work size of one Solve.
func solveItems(inst *model.Instance) []int {
	items := make([]int, inst.N)
	for n := 0; n < inst.N; n++ {
		for u := 0; u < inst.U; u++ {
			if !inst.Links[n][u] {
				continue
			}
			for _, d := range inst.Demand[u] {
				if d > 0 {
					items[n]++
				}
			}
		}
	}
	return items
}
