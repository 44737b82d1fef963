// CDN federation: the paper's motivating deployment (§III) — a content
// provider coordinates small base stations owned by different wireless
// operators. The operators will not share their routing policies with each
// other, so each SBS runs as its own agent, talks to the BS coordinator
// over TCP, and protects its uploads with LPPM before they leave the
// premises.
//
//	go run ./examples/cdnfederation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/dp"
	"edgecache/internal/experiments"
	"edgecache/internal/model"
	"edgecache/internal/sim"
	"edgecache/internal/transport"
)

func main() {
	// One trending-video scenario: 3 operators' SBSs, 30 MU locations.
	sc := experiments.DefaultScenario()
	inst, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}
	operators := []string{"operator-alpha", "operator-beta", "operator-gamma"}

	// The content provider's coordinator endpoint.
	bsEp, err := transport.NewTCPEndpoint("content-provider", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer bsEp.Close()

	// One TCP endpoint and one agent per operator, each with its own noise
	// source and a shared privacy accountant for the report at the end.
	var acct dp.Accountant
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for n, name := range operators {
		ep, err := transport.NewTCPEndpoint(name, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ep.Close()
		bsEp.AddPeer(name, ep.Addr())
		ep.AddPeer("content-provider", bsEp.Addr())

		privacy := &core.PrivacyConfig{
			Epsilon:    0.5,
			Delta:      0.4,
			Noise:      core.NewNoiseSource(int64(1000 + n)),
			Accountant: &acct,
		}
		agent, err := sim.NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), privacy, ep, "content-provider")
		if err != nil {
			log.Fatal(err)
		}
		go func(op string) {
			if err := agent.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("%s agent: %v", op, err)
			}
		}(name)
	}

	// Under LPPM the γ stop rule rarely fires (noise is redrawn every
	// sweep), so bound the sweeps explicitly; the cost trajectory is flat
	// well before twelve (see the E8 convergence experiment).
	bs, err := sim.NewBSAgent(inst, sim.BSConfig{PhaseTimeout: 10 * time.Second, MaxSweeps: 12}, bsEp, operators)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("coordinating", len(operators), "operators over TCP with LPPM(ε=0.5, δ=0.4)…")
	res, err := bs.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nconverged=%v after %d sweeps\n", res.Converged, res.Sweeps)
	fmt.Printf("total serving cost %.0f (backhaul ceiling %.0f, %.1f%% served at the edge)\n",
		res.Solution.Cost.Total, inst.MaxCost(), 100*model.ServedFraction(inst, res.Solution.Routing))
	for n, name := range operators {
		fmt.Printf("%s: caches %d contents, load %.0f/%.0f\n",
			name, res.Solution.Caching.Count(n),
			res.Solution.Routing.Load(inst, n), inst.Bandwidth[n])
	}
	fmt.Printf("\nprivacy ledger (parallel composition across operators):\n%s\n", acct.String())
}
