// Privacy sweep: quantify the privacy/utility trade-off of LPPM on one
// scenario — the experiment a deployment engineer runs before picking a
// privacy budget. For each ε the example runs Algorithm 1 with LPPM,
// reports the serving-cost overhead versus the non-private run, and prints
// the privacy ledger (per-SBS parallel composition across sweeps).
//
//	go run ./examples/privacysweep
package main

import (
	"fmt"
	"log"
	"os"

	"edgecache/internal/core"
	"edgecache/internal/dp"
	"edgecache/internal/experiments"
	"edgecache/internal/metrics"
	"edgecache/internal/stats"
)

func main() {
	sc := experiments.DefaultScenario()
	inst, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}

	coord, err := core.NewCoordinator(inst, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	clean, err := coord.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-private Algorithm 1: cost %.0f in %d sweeps\n\n",
		clean.Solution.Cost.Total, clean.Sweeps)

	table := metrics.NewTable("LPPM privacy/utility trade-off (δ = 0.5)",
		"epsilon", "cost", "overhead (%)", "sweeps", "total ε spent per SBS")
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100} {
		var acct dp.Accountant
		cfg := core.DefaultConfig()
		cfg.MaxSweeps = 12
		cfg.Privacy = &core.PrivacyConfig{
			Epsilon:    eps,
			Delta:      0.5,
			Noise:      core.NewNoiseSource(42),
			Accountant: &acct,
		}
		c, err := core.NewCoordinator(inst, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			log.Fatal(err)
		}
		overhead := stats.RelativeChange(res.Solution.Cost.Total, clean.Solution.Cost.Total) * 100
		table.MustAddRow(eps, res.Solution.Cost.Total, overhead, res.Sweeps, acct.ParallelEpsilon())
	}
	table.AddNote("per-release ε composes sequentially over sweeps within one SBS" +
		" and in parallel across SBSs (each perturbs only its own routing)")
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
