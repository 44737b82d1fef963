package edgecache_test

import (
	"fmt"
	"log"

	"edgecache"
	"edgecache/internal/model"
)

// Example demonstrates the primary entry point: build a small network and
// jointly optimize caching and routing with the paper's Algorithm 1.
func Example() {
	inst := &edgecache.Instance{
		N: 2, U: 2, F: 3,
		Demand: [][]float64{
			{20, 5, 0},
			{0, 10, 15},
		},
		Links:     [][]bool{{true, false}, {true, true}},
		CacheCap:  []int{1, 2},
		Bandwidth: []float64{25, 30},
		EdgeCost:  [][]float64{{1, 0}, {1, 1}},
		BSCost:    []float64{100, 120},
	}
	res, err := edgecache.Solve(inst)
	if err != nil {
		log.Fatal(err)
	}
	feasible := len(edgecache.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing)) == 0
	fmt.Println("converged:", res.Converged)
	fmt.Println("feasible:", feasible)
	fmt.Println("beats all-backhaul:", res.Solution.Cost.Total < inst.MaxCost())
	// Output:
	// converged: true
	// feasible: true
	// beats all-backhaul: true
}

// ExampleSolveWithPrivacy shows the LPPM-protected variant with privacy
// accounting.
func ExampleSolveWithPrivacy() {
	inst, err := edgecache.DefaultScenario().Build()
	if err != nil {
		log.Fatal(err)
	}
	var ledger edgecache.Accountant
	res, err := edgecache.SolveWithPrivacy(inst, edgecache.PrivacyParams{
		Epsilon: 0.5, Delta: 0.5, Seed: 42, Accountant: &ledger,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("feasible:", len(model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing)) == 0)
	fmt.Println("per-SBS budgets tracked:", len(ledger.ByLabel()) == inst.N)
	// Output:
	// feasible: true
	// per-SBS budgets tracked: true
}
