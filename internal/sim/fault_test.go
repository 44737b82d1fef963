package sim

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/transport"
)

// filterEndpoint drops sends selected by the predicate — deterministic
// fault injection for retransmission tests.
type filterEndpoint struct {
	transport.Endpoint
	mu   sync.Mutex
	drop func(m transport.Message) bool
}

func (f *filterEndpoint) Send(ctx context.Context, to string, m transport.Message) error {
	f.mu.Lock()
	dropped := f.drop(m)
	f.mu.Unlock()
	if dropped {
		return nil
	}
	return f.Endpoint.Send(ctx, to, m)
}

// TestAnnounceRetransmitRecoversLostAnnounce: the first announce of every
// phase is dropped; retransmission inside the phase window must recover
// each one, so the run stays bit-for-bit identical to the in-process
// coordinator — no phase is ever missed.
func TestAnnounceRetransmitRecoversLostAnnounce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	hub := transport.NewHub()
	rawBs, err := hub.Register("bs", 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool)
	bsEp := &filterEndpoint{Endpoint: rawBs, drop: func(m transport.Message) bool {
		if m.Type != transport.MsgPhaseStart {
			return false
		}
		key := [2]int{m.Sweep, m.Phase}
		if !seen[key] {
			seen[key] = true
			return true // first announce of this phase is lost
		}
		return false
	}}

	sbsNames := []string{"sbs-0", "sbs-1", "sbs-2"}
	for n, name := range sbsNames {
		ep, err := hub.Register(name, 8)
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

	var counter EventCounter
	bs, err := NewBSAgent(inst, BSConfig{
		PhaseTimeout:    300 * time.Millisecond,
		AnnounceRetries: 2,
		OnEvent:         counter.Hook(),
	}, bsEp, sbsNames)
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
	if len(got.History) != len(want.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(got.History), len(want.History))
	}
	for i := range got.History {
		if math.Abs(got.History[i]-want.History[i]) > 1e-12 {
			t.Errorf("history[%d] = %v, want %v", i, got.History[i], want.History[i])
		}
	}
	tf := got.TotalFaults()
	if tf.Misses != 0 {
		t.Errorf("misses = %d, want 0 (every announce should be recovered)", tf.Misses)
	}
	if tf.Retries == 0 {
		t.Error("no announce retries recorded despite dropped announces")
	}
	if c := counter.Count(EventAnnounceRetry); c != tf.Retries {
		t.Errorf("hook counted %d retries, stats say %d", c, tf.Retries)
	}
}

// TestQuarantineSkipsDeadSBS: a permanently dead SBS must cost one full
// PhaseTimeout per quarantine entry, not one per sweep — its phases are
// skipped while quarantined and only cheap probes go out afterwards.
func TestQuarantineSkipsDeadSBS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	hub := transport.NewHub()
	bsEp, err := hub.Register("bs", 64)
	if err != nil {
		t.Fatal(err)
	}
	sbsNames := []string{"sbs-0", "sbs-1", "sbs-2"}
	// sbs-1 is registered but never answers.
	silent, err := hub.Register("sbs-1", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for _, n := range []int{0, 2} {
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

	const phaseTimeout = 300 * time.Millisecond
	var counter EventCounter
	bs, err := NewBSAgent(inst, BSConfig{
		PhaseTimeout:     phaseTimeout,
		QuarantineSweeps: 2,
		MaxSweeps:        8,
		OnEvent:          counter.Hook(),
	}, bsEp, sbsNames)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := bs.Run(ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("run did not converge with two healthy SBSs")
	}
	dead := res.Faults[1]
	if dead.Misses != quarantineAfter {
		t.Errorf("dead SBS misses = %d, want exactly %d (then quarantine)", dead.Misses, quarantineAfter)
	}
	if dead.QuarantineSpans < 1 {
		t.Error("dead SBS was never quarantined")
	}
	if dead.SkippedPhases < 1 {
		t.Error("no phases were skipped for the quarantined SBS")
	}
	for _, n := range []int{0, 2} {
		if f := res.Faults[n]; f != (core.SBSFaultStats{}) {
			t.Errorf("healthy SBS %d has fault stats %+v", n, f)
		}
	}
	// The stall bound: one PhaseTimeout per full-window miss plus cheap
	// probes — far below one PhaseTimeout per sweep.
	budget := time.Duration(dead.Misses)*phaseTimeout +
		time.Duration(dead.FailedProbes)*phaseTimeout/probeDivisor + 2*time.Second
	if elapsed > budget {
		t.Errorf("run took %v, stall budget %v", elapsed, budget)
	}
	if c := counter.Count(EventQuarantine); c != dead.QuarantineSpans {
		t.Errorf("hook counted %d quarantines, stats say %d", c, dead.QuarantineSpans)
	}
	if c := counter.Count(EventUploadTimeout); c != dead.Misses {
		t.Errorf("hook counted %d timeouts, stats say %d", c, dead.Misses)
	}
}

// TestMalformedUploadsAreCountedAndSurvived: a rogue agent answers every
// announce with a bad upload. An undecodable payload is counted and
// treated as a missed phase, so the rogue is quarantined; a decodable one
// whose routing entries are NaN, infinite or outside [0,1] is counted as
// malformed and its previous policy stays in force. Either way the BS must
// keep its aggregate finite and still converge with the healthy SBSs.
func TestMalformedUploadsAreCountedAndSurvived(t *testing.T) {
	// full sets every routing entry of the rogue's upload to v, caching
	// nothing.
	full := func(v float64) func(*testing.T, *model.Instance) transport.PolicyUpload {
		return func(_ *testing.T, inst *model.Instance) transport.PolicyUpload {
			up := transport.PolicyUpload{Cache: make([]bool, inst.F), Routing: make([][]float64, inst.U)}
			for u := range up.Routing {
				up.Routing[u] = make([]float64, inst.F)
				for f := range up.Routing[u] {
					up.Routing[u][f] = v
				}
			}
			return up
		}
	}
	// oneShare routes a small share of content 0 to the first user whose
	// link to the rogue SBS 0 is `linked`, with content 0 cached or not.
	oneShare := func(linked, cached bool) func(*testing.T, *model.Instance) transport.PolicyUpload {
		return func(t *testing.T, inst *model.Instance) transport.PolicyUpload {
			up := full(0)(t, inst)
			up.Cache[0] = cached
			for u, l := range inst.Links[0] {
				if l == linked {
					up.Routing[u][0] = 0.01
					return up
				}
			}
			t.Fatalf("SBS 0 has no user with link=%v", linked)
			return up
		}
	}
	for _, tc := range []struct {
		name   string
		upload func(*testing.T, *model.Instance) transport.PolicyUpload // nil: undecodable bytes
		event  EventKind
	}{
		{"undecodable", nil, EventBadUpload},
		{"nan", full(math.NaN()), EventMalformedUpload},
		{"inf", full(math.Inf(1)), EventMalformedUpload},
		{"above-one", full(1.5), EventMalformedUpload},
		{"negative", full(-0.1), EventMalformedUpload},
		{"cache-over-capacity", func(t *testing.T, inst *model.Instance) transport.PolicyUpload {
			up := full(0)(t, inst)
			for f := range up.Cache {
				up.Cache[f] = true
			}
			return up
		}, EventMalformedUpload},
		{"uncached-content", oneShare(true, false), EventMalformedUpload},
		{"unlinked-user", oneShare(false, true), EventMalformedUpload},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			inst := randomInstance(rng, 3, 5, 6)
			ctx := testCtx(t)

			payload := []byte("not a payload")
			if tc.upload != nil {
				var err error
				payload, err = transport.EncodePayload(tc.upload(t, inst))
				if err != nil {
					t.Fatal(err)
				}
			}

			hub := transport.NewHub()
			bsEp, err := hub.Register("bs", 64)
			if err != nil {
				t.Fatal(err)
			}
			sbsNames := []string{"sbs-0", "sbs-1", "sbs-2"}
			rogue, err := hub.Register("sbs-0", 16)
			if err != nil {
				t.Fatal(err)
			}
			defer rogue.Close()
			go func() {
				for {
					msg, err := rogue.Recv(ctx)
					if err != nil {
						return
					}
					if msg.Type != transport.MsgPhaseStart {
						continue
					}
					_ = rogue.Send(ctx, "bs", transport.Message{
						Type:    transport.MsgPolicyUpload,
						Sweep:   msg.Sweep,
						Phase:   msg.Phase,
						Payload: payload,
					})
				}
			}()
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

			var counter EventCounter
			bs, err := NewBSAgent(inst, BSConfig{
				PhaseTimeout: 150 * time.Millisecond,
				MaxSweeps:    8,
				OnEvent:      counter.Hook(),
			}, bsEp, sbsNames)
			if err != nil {
				t.Fatal(err)
			}
			res, err := bs.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			bad := res.Faults[0]
			if bad.Malformed == 0 {
				t.Error("no malformed uploads counted for the rogue SBS")
			}
			if c := counter.Count(tc.event); c != bad.Malformed {
				t.Errorf("hook counted %d %v events, stats say %d malformed", c, tc.event, bad.Malformed)
			}
			if tc.event == EventBadUpload {
				if bad.Misses == 0 {
					t.Error("rogue phases were not treated as missing")
				}
				if bad.QuarantineSpans == 0 {
					t.Error("rogue SBS was never quarantined")
				}
			}
			for sweep, cost := range res.History {
				if math.IsNaN(cost) || math.IsInf(cost, 0) {
					t.Fatalf("History[%d] = %v: a rejected upload reached the aggregate", sweep, cost)
				}
			}
			if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
				t.Fatalf("infeasible:\n%s", model.FormatViolations(vs))
			}
			// The rogue never contributed a valid policy.
			for u := 0; u < inst.U; u++ {
				for f := 0; f < inst.F; f++ {
					if res.Solution.Routing.At(0, u, f) != 0 {
						t.Fatal("rogue SBS has nonzero routing")
					}
				}
			}
		})
	}
}

// TestSBSHookSeesBadAnnouncements: the SBS-side hook observes undecodable
// announcements (junk bytes, an out-of-range index) and wrong-shaped ones
// instead of swallowing them silently.
func TestSBSHookSeesBadAnnouncements(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	inst := randomInstance(rng, 1, 3, 4)
	ctx := testCtx(t)

	hub := transport.NewHub()
	bsEp, err := hub.Register("bs", 8)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := hub.Register("sbs-0", 8)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewSBSAgent(inst, 0, core.DefaultSubproblemConfig(), nil, ep, "bs")
	if err != nil {
		t.Fatal(err)
	}
	var counter EventCounter
	agent.SetEventHook(counter.Hook())
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()

	// Undecodable payload.
	if err := bsEp.Send(ctx, "sbs-0", transport.Message{
		Type: transport.MsgPhaseStart, Sweep: 0, Phase: 0, Payload: []byte("junk"),
	}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range index: a 3×4 body whose one entry names cell 12 = U·F.
	// The body's last 12 bytes are that entry's (u32 index, u64 bits) pair.
	rows := inst.NewUFMat()
	rows.Set(2, 3, 0.5)
	outOfRange, err := transport.EncodePayload(transport.AggregateAnnounce{YMinus: rows.Rows()})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(outOfRange[len(outOfRange)-12:], uint32(inst.U*inst.F))
	if err := bsEp.Send(ctx, "sbs-0", transport.Message{
		Type: transport.MsgPhaseStart, Sweep: 0, Phase: 0, Payload: outOfRange,
	}); err != nil {
		t.Fatal(err)
	}
	// Wrong-shaped (but well-formed) aggregate: U×F is 3×4, send 2×2.
	wrong, err := transport.EncodePayload(transport.AggregateAnnounce{
		YMinus: [][]float64{{1, 2}, {3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bsEp.Send(ctx, "sbs-0", transport.Message{
		Type: transport.MsgPhaseStart, Sweep: 0, Phase: 0, Payload: wrong,
	}); err != nil {
		t.Fatal(err)
	}
	if err := bsEp.Send(ctx, "sbs-0", transport.Message{Type: transport.MsgDone}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not exit on MsgDone")
	}
	if c := counter.Count(EventBadAnnounce); c != 2 {
		t.Errorf("bad-announce events = %d, want 2", c)
	}
	if c := counter.Count(EventUnsolvable); c != 1 {
		t.Errorf("unsolvable events = %d, want 1", c)
	}
}

// TestProtocolSurvivesReordering: ReorderProb on every SBS link exercises
// the stale-discard logic in awaitUpload that duplicates and reordering
// were claimed to be handled by — the run must stay feasible and create
// edge-serving value.
func TestProtocolSurvivesReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	hub := transport.NewHub()
	rawBs, err := hub.Register("bs", 64)
	if err != nil {
		t.Fatal(err)
	}
	bsEp, err := transport.NewFaultyEndpoint(rawBs, transport.FaultConfig{ReorderProb: 0.4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sbsNames := []string{"sbs-0", "sbs-1", "sbs-2"}
	for n, name := range sbsNames {
		ep, err := hub.Register(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		faulty, err := transport.NewFaultyEndpoint(ep, transport.FaultConfig{ReorderProb: 0.4, Seed: int64(40 + n)})
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), nil, faulty, "bs")
		if err != nil {
			t.Fatal(err)
		}
		go agent.Run(ctx) //nolint — exits on MsgDone or ctx cancel
	}
	bs, err := NewBSAgent(inst, BSConfig{PhaseTimeout: 150 * time.Millisecond, MaxSweeps: 12}, bsEp, sbsNames)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bs.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible under reordering:\n%s", model.FormatViolations(vs))
	}
	if res.Solution.Cost.Total >= inst.MaxCost() {
		t.Error("reordered run produced no edge serving at all")
	}
}
