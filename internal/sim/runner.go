package sim

import (
	"context"
	"fmt"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/transport"
)

// RunInmem wires one BS agent and N SBS agents over an in-memory hub, runs
// the protocol to convergence and returns the result. It is the one-call
// distributed deployment used by examples, benchmarks and tests.
//
// privacyFor, when non-nil, supplies the per-SBS privacy configuration
// (each SBS must own its noise source; sharing one *rand.Rand across agents
// would race).
func RunInmem(ctx context.Context, inst *model.Instance, cfg BSConfig, sub core.SubproblemConfig,
	privacyFor func(n int) *core.PrivacyConfig) (*core.RunResult, error) {
	res, _, err := RunInmemWithStats(ctx, inst, cfg, sub, privacyFor)
	return res, err
}

// RunInmemWithStats is RunInmem plus the BS-side traffic counters — how
// many protocol messages and payload bytes crossed the (simulated)
// network, which is the surface LPPM protects.
func RunInmemWithStats(ctx context.Context, inst *model.Instance, cfg BSConfig, sub core.SubproblemConfig,
	privacyFor func(n int) *core.PrivacyConfig) (*core.RunResult, transport.Stats, error) {
	if err := inst.Validate(); err != nil {
		return nil, transport.Stats{}, err
	}
	hub := transport.NewHub()
	const bsName = "bs"
	rawBsEp, err := hub.Register(bsName, 4*inst.N+4)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	// No send-retry layer: a hub send fails only with ErrClosed,
	// ErrUnknownPeer or a context error, none of which a retry can mend.
	bsEp := transport.NewCountingEndpoint(rawBsEp)
	defer bsEp.Close()

	sbsNames := make([]string, inst.N)
	agents := make([]*SBSAgent, inst.N)
	for n := 0; n < inst.N; n++ {
		sbsNames[n] = fmt.Sprintf("sbs-%d", n)
		ep, err := hub.Register(sbsNames[n], 8)
		if err != nil {
			return nil, transport.Stats{}, err
		}
		defer ep.Close()
		var privacy *core.PrivacyConfig
		if privacyFor != nil {
			privacy = privacyFor(n)
		}
		agent, err := NewSBSAgent(inst, n, sub, privacy, ep, bsName)
		if err != nil {
			return nil, transport.Stats{}, err
		}
		agents[n] = agent
	}

	bs, err := NewBSAgent(inst, cfg, bsEp, sbsNames)
	if err != nil {
		return nil, transport.Stats{}, err
	}

	agentCtx, cancelAgents := context.WithCancel(ctx)
	defer cancelAgents()
	errCh := make(chan error, inst.N)
	for _, agent := range agents {
		agent := agent
		go func() { errCh <- agent.Run(agentCtx) }()
	}

	res, runErr := bs.Run(ctx)
	cancelAgents()
	// Drain agent exits so no goroutine outlives the call.
	for range agents {
		select {
		case <-errCh:
		case <-time.After(5 * time.Second):
			return nil, transport.Stats{}, fmt.Errorf("sim: SBS agent failed to stop")
		}
	}
	return res, bsEp.Stats(), runErr
}
