package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/dp"
	"edgecache/internal/model"
	"edgecache/internal/transport"
)

func randomInstance(rng *rand.Rand, n, u, f int) *model.Instance {
	return randomInstanceLinked(rng, n, u, f, 0.6)
}

// randomInstanceLinked draws an instance whose SBS–user links are present
// with probability density.
func randomInstanceLinked(rng *rand.Rand, n, u, f int, density float64) *model.Instance {
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
		inst.CacheCap[i] = 1 + rng.Intn(f/2+1)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestDistributedMatchesInProcess: without privacy the protocol run must
// produce exactly the in-process coordinator's result — same history, same
// final cost, same policies, bit for bit.
func TestDistributedMatchesInProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		inst := randomInstance(rng, 3, 5, 6)

		coord, err := core.NewCoordinator(inst, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}

		got, err := RunInmem(testCtx(t), inst, BSConfig{}, core.DefaultSubproblemConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}

		simBitEqual(t, got, want, fmt.Sprintf("trial %d", trial))
	}
}

func TestDistributedWithPrivacyFeasibleAndAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := randomInstance(rng, 3, 5, 6)
	var acct dp.Accountant
	privacyFor := func(n int) *core.PrivacyConfig {
		return &core.PrivacyConfig{
			Epsilon:    0.1,
			Delta:      0.5,
			Noise:      core.NewNoiseSource(int64(100 + n)),
			Accountant: &acct,
		}
	}
	res, err := RunInmem(testCtx(t), inst, BSConfig{}, core.DefaultSubproblemConfig(), privacyFor)
	if err != nil {
		t.Fatal(err)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible solution:\n%s", model.FormatViolations(vs))
	}
	if got, want := acct.Count(), res.Sweeps*inst.N; got != want {
		t.Errorf("accountant count = %d, want %d", got, want)
	}
	if len(acct.ByLabel()) != inst.N {
		t.Errorf("labels = %d, want %d", len(acct.ByLabel()), inst.N)
	}
}

// TestBSToleratesCrashedSBS: one SBS never responds; the BS must still
// converge using the remaining SBSs, with the dead SBS contributing
// nothing.
func TestBSToleratesCrashedSBS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(rng, 3, 5, 6)
	hub := transport.NewHub()
	bsEp, err := hub.Register("bs", 16)
	if err != nil {
		t.Fatal(err)
	}
	sbsNames := []string{"sbs-0", "sbs-1", "sbs-2"}
	ctx := testCtx(t)

	// Only SBS 0 and 2 run; sbs-1 is registered but silent.
	silent, err := hub.Register("sbs-1", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for _, n := range []int{0, 2} {
		ep, err := hub.Register(sbsNames[n], 4)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		agent, err := NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), nil, ep, "bs")
		if err != nil {
			t.Fatal(err)
		}
		go agent.Run(ctx) //nolint — exits on MsgDone or ctx cancel
	}

	bs, err := NewBSAgent(inst, BSConfig{PhaseTimeout: 50 * time.Millisecond}, bsEp, sbsNames)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bs.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("BS did not converge despite two live SBSs")
	}
	// The dead SBS's routing must be all zero.
	for u := 0; u < inst.U; u++ {
		for f := 0; f < inst.F; f++ {
			if res.Solution.Routing.At(1, u, f) != 0 {
				t.Fatal("silent SBS has nonzero routing")
			}
		}
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible:\n%s", model.FormatViolations(vs))
	}
}

// TestDistributedOverTCP runs the full protocol over real sockets.
func TestDistributedOverTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := randomInstance(rng, 2, 4, 5)
	ctx := testCtx(t)

	bsEp, err := transport.NewTCPEndpoint("bs", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bsEp.Close()
	sbsNames := []string{"sbs-0", "sbs-1"}
	var sbsEps []*transport.TCPEndpoint
	for _, name := range sbsNames {
		ep, err := transport.NewTCPEndpoint(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		sbsEps = append(sbsEps, ep)
	}
	for i, name := range sbsNames {
		bsEp.AddPeer(name, sbsEps[i].Addr())
		sbsEps[i].AddPeer("bs", bsEp.Addr())
	}

	for n := range sbsNames {
		agent, err := NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), nil, sbsEps[n], "bs")
		if err != nil {
			t.Fatal(err)
		}
		go agent.Run(ctx) //nolint — exits on MsgDone or ctx cancel
	}

	bs, err := NewBSAgent(inst, BSConfig{}, bsEp, sbsNames)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bs.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := core.NewCoordinator(inst, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	simBitEqual(t, got, want, "TCP")
}

// TestDistributedSurvivesLossyLinks: with a drop+duplicate fault model on
// the BS side, timeouts skip lost phases and stale-message filtering
// discards duplicates; the run must still produce a feasible solution.
func TestDistributedSurvivesLossyLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 3, 5, 6)
	hub := transport.NewHub()
	rawBs, err := hub.Register("bs", 64)
	if err != nil {
		t.Fatal(err)
	}
	bsEp, err := transport.NewFaultyEndpoint(rawBs, transport.FaultConfig{
		DropProb: 0.2, DupProb: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sbsNames := []string{"sbs-0", "sbs-1", "sbs-2"}
	for n, name := range sbsNames {
		ep, err := hub.Register(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		faulty, err := transport.NewFaultyEndpoint(ep, transport.FaultConfig{
			DropProb: 0.2, DupProb: 0.2, Seed: int64(20 + n),
		})
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), nil, faulty, "bs")
		if err != nil {
			t.Fatal(err)
		}
		go agent.Run(ctx) //nolint — exits on MsgDone or ctx cancel
	}
	bs, err := NewBSAgent(inst, BSConfig{PhaseTimeout: 50 * time.Millisecond, MaxSweeps: 20}, bsEp, sbsNames)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bs.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible under lossy links:\n%s", model.FormatViolations(vs))
	}
	// Despite losses some value must have been created.
	if res.Solution.Cost.Total >= inst.MaxCost() {
		t.Error("lossy run produced no edge serving at all")
	}
}

// TestSBSCrashAndRejoin: an SBS dies after the first sweep and a
// replacement agent joins under the same name mid-run; the BS must keep
// making progress throughout and end feasible.
func TestSBSCrashAndRejoin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := randomInstance(rng, 3, 5, 6)
	hub := transport.NewHub()
	bsEp, err := hub.Register("bs", 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sbsNames := []string{"sbs-0", "sbs-1", "sbs-2"}

	// SBS 1 and 2 run normally.
	for _, n := range []int{1, 2} {
		ep, err := hub.Register(sbsNames[n], 8)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		agent, err := NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), nil, ep, "bs")
		if err != nil {
			t.Fatal(err)
		}
		go agent.Run(ctx) //nolint — exits on MsgDone or ctx cancel
	}

	// SBS 0 crashes after its first phase: run it with a cancellable
	// context and kill it once it has served one announcement.
	ep0, err := hub.Register("sbs-0", 8)
	if err != nil {
		t.Fatal(err)
	}
	crashCtx, crash := context.WithCancel(ctx)
	agent0, err := NewSBSAgent(inst, 0, core.DefaultSubproblemConfig(), nil, ep0, "bs")
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan struct{}, 1)
	go func() {
		// Intercept: serve exactly one phase by running the agent and
		// crashing it shortly after the BS's first announcement lands.
		go agent0.Run(crashCtx) //nolint
		<-firstDone
		crash()
		ep0.Close()
	}()

	bs, err := NewBSAgent(inst, BSConfig{PhaseTimeout: 100 * time.Millisecond, MaxSweeps: 6, Gamma: 1e-12}, bsEp, sbsNames)
	if err != nil {
		t.Fatal(err)
	}
	// Crash SBS 0 once sweep 0 completed, then rejoin it during sweep 2.
	go func() {
		time.Sleep(200 * time.Millisecond)
		firstDone <- struct{}{}
		time.Sleep(300 * time.Millisecond)
		ep0b, err := hub.Register("sbs-0", 8)
		if err != nil {
			return // name still held; BS just keeps timing out, still valid
		}
		rejoined, err := NewSBSAgent(inst, 0, core.DefaultSubproblemConfig(), nil, ep0b, "bs")
		if err != nil {
			t.Error(err)
			return
		}
		go rejoined.Run(ctx) //nolint
	}()

	res, err := bs.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps == 0 {
		t.Fatal("BS made no progress")
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible after crash/rejoin:\n%s", model.FormatViolations(vs))
	}
	if res.Solution.Cost.Total >= inst.MaxCost() {
		t.Error("no edge serving despite two always-alive SBSs")
	}
}

func TestAgentConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst := randomInstance(rng, 2, 3, 4)
	hub := transport.NewHub()
	ep, err := hub.Register("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBSAgent(inst, BSConfig{}, nil, []string{"a", "b"}); err == nil {
		t.Error("nil endpoint: want error")
	}
	if _, err := NewBSAgent(inst, BSConfig{}, ep, []string{"a"}); err == nil {
		t.Error("wrong sbsNames length: want error")
	}
	if _, err := NewBSAgent(&model.Instance{N: 0}, BSConfig{}, ep, nil); err == nil {
		t.Error("invalid instance: want error")
	}
	if _, err := NewSBSAgent(inst, 0, core.SubproblemConfig{}, nil, nil, "bs"); err == nil {
		t.Error("nil endpoint: want error")
	}
	if _, err := NewSBSAgent(inst, 0, core.SubproblemConfig{}, nil, ep, ""); err == nil {
		t.Error("empty BS name: want error")
	}
	if _, err := NewSBSAgent(inst, 9, core.SubproblemConfig{}, nil, ep, "bs"); err == nil {
		t.Error("bad SBS index: want error")
	}
	bad := &core.PrivacyConfig{Epsilon: -1}
	if _, err := NewSBSAgent(inst, 0, core.SubproblemConfig{}, bad, ep, "bs"); err == nil {
		t.Error("bad privacy config: want error")
	}
}

func TestSBSAgentStopsOnContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 1, 3, 4)
	hub := transport.NewHub()
	ep, err := hub.Register("sbs-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewSBSAgent(inst, 0, core.DefaultSubproblemConfig(), nil, ep, "bs")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled agent returned nil, want context error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not stop on cancel")
	}
}
