package sim

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/transport"
)

// simBitEqual asserts exact trajectory equality between two protocol runs:
// history, final cost and final policies, all at the bit level. The sim
// resume guarantee (without LPPM) is bit-identity, not tolerance.
func simBitEqual(t *testing.T, got, want *core.RunResult, label string) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history length %d, want %d", label, len(got.History), len(want.History))
	}
	for i := range got.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
			t.Fatalf("%s: history[%d] = %v, want %v (bit difference)", label, i, got.History[i], want.History[i])
		}
	}
	if got.Converged != want.Converged || got.Sweeps != want.Sweeps {
		t.Fatalf("%s: converged/sweeps = %v/%d, want %v/%d", label, got.Converged, got.Sweeps, want.Converged, want.Sweeps)
	}
	if math.Float64bits(got.Solution.Cost.Total) != math.Float64bits(want.Solution.Cost.Total) {
		t.Fatalf("%s: final cost %v, want %v", label, got.Solution.Cost.Total, want.Solution.Cost.Total)
	}
	if got.Solution.Caching.DiffCount(want.Solution.Caching) != 0 {
		t.Fatalf("%s: final caching policy differs", label)
	}
	gd, wd := got.Solution.Routing.T.Data, want.Solution.Routing.T.Data
	for i := range gd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: final routing[%d] = %v, want %v", label, i, gd[i], wd[i])
		}
	}
}

// runProtocol wires a fresh in-memory deployment (one BS, N SBS agents) and
// either starts a run from scratch (ck == nil) or resumes from a snapshot.
// It returns the SBS agents so tests can inspect their post-run state.
func runProtocol(t *testing.T, ctx context.Context, inst *model.Instance, cfg BSConfig,
	ck *model.Checkpoint, sbsHook EventHook) (*core.RunResult, []*SBSAgent, error) {
	t.Helper()
	hub := transport.NewHub()
	const bsName = "bs"
	rawBsEp, err := hub.Register(bsName, 4*inst.N+4)
	if err != nil {
		t.Fatal(err)
	}
	bsEp, err := transport.NewReliableEndpoint(rawBsEp, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer bsEp.Close()

	sbsNames := make([]string, inst.N)
	agents := make([]*SBSAgent, inst.N)
	for n := 0; n < inst.N; n++ {
		sbsNames[n] = "sbs-" + string(rune('0'+n))
		ep, err := hub.Register(sbsNames[n], 8)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		relEp, err := transport.NewReliableEndpoint(ep, transport.RetryPolicy{Seed: int64(n) + 1})
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), nil, relEp, bsName)
		if err != nil {
			t.Fatal(err)
		}
		if sbsHook != nil {
			agent.SetEventHook(sbsHook)
		}
		agents[n] = agent
	}

	bs, err := NewBSAgent(inst, cfg, bsEp, sbsNames)
	if err != nil {
		t.Fatal(err)
	}

	agentCtx, cancelAgents := context.WithCancel(ctx)
	defer cancelAgents()
	errCh := make(chan error, inst.N)
	for _, agent := range agents {
		agent := agent
		go func() { errCh <- agent.Run(agentCtx) }()
	}

	var res *core.RunResult
	var runErr error
	if ck != nil {
		res, runErr = bs.Resume(ctx, ck)
	} else {
		res, runErr = bs.Run(ctx)
	}
	cancelAgents()
	for range agents {
		select {
		case <-errCh:
		case <-time.After(5 * time.Second):
			t.Fatal("SBS agent failed to stop")
		}
	}
	return res, agents, runErr
}

func TestSimCheckpointNonIntrusive(t *testing.T) {
	// Turning checkpointing on must not change the protocol trajectory by a
	// single bit: BS snapshots are pure reads of the sweep state.
	rng := rand.New(rand.NewSource(61))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	want, _, err := runProtocol(t, ctx, inst, BSConfig{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := model.NewMemCheckpointStore(0)
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store, EverySweeps: 1}}
	got, _, err := runProtocol(t, ctx, inst, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	simBitEqual(t, got, want, "checkpointed protocol run")
	if store.Len() == 0 {
		t.Fatal("no snapshots captured")
	}
	for _, ck := range store.All() {
		if ck.Phase != 0 {
			t.Fatalf("BS snapshot at phase %d; want sweep boundaries only", ck.Phase)
		}
		if ck.HasNoise {
			t.Fatal("BS snapshot claims an in-process noise stream")
		}
	}
}

func TestSimResumeEveryBoundaryBitIdentical(t *testing.T) {
	// Crash the BS at any sweep boundary, resume a fresh BS process from
	// the snapshot against fresh SBS agents: the trajectory must be
	// bit-identical to the uninterrupted protocol run.
	// This instance takes 4 sweeps to converge, so the boundary cadence
	// captures 3 distinct resume points (the greedy best-response dynamics
	// hit their fixed point fast on random instances).
	rng := rand.New(rand.NewSource(16))
	inst := randomInstance(rng, 8, 12, 16)
	ctx := testCtx(t)

	store := model.NewMemCheckpointStore(0)
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store, EverySweeps: 1}}
	want, _, err := runProtocol(t, ctx, inst, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps := store.All()
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots captured", len(snaps))
	}
	for _, ck := range snaps {
		got, _, err := runProtocol(t, ctx, inst, BSConfig{}, ck, nil)
		if err != nil {
			t.Fatalf("resume at sweep %d: %v", ck.Sweep, err)
		}
		simBitEqual(t, got, want, "resume at sweep "+string(rune('0'+ck.Sweep)))
	}
}

func TestSimStateSyncHandshake(t *testing.T) {
	// A resumed BS rebroadcasts the resume point: every live SBS must
	// receive exactly one MsgStateSync and acknowledge it within the
	// handshake window.
	rng := rand.New(rand.NewSource(81))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	store := model.NewMemCheckpointStore(0)
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store, EverySweeps: 1}}
	if _, _, err := runProtocol(t, ctx, inst, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	ck, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}

	var bsEvents, sbsEvents EventCounter
	resumeCfg := BSConfig{OnEvent: bsEvents.Hook()}
	if _, _, err := runProtocol(t, ctx, inst, resumeCfg, ck, sbsEvents.Hook()); err != nil {
		t.Fatal(err)
	}
	if got := sbsEvents.Count(EventStateSync); got != inst.N {
		t.Errorf("state-sync events = %d, want %d", got, inst.N)
	}
	if got := bsEvents.Count(EventStateSyncMiss); got != 0 {
		t.Errorf("state-sync misses on clean links = %d, want 0", got)
	}
}

func TestSimResumeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	store := model.NewMemCheckpointStore(0)
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store, EverySweeps: 1}}
	if _, _, err := runProtocol(t, ctx, inst, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	ck, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}

	hub := transport.NewHub()
	ep, err := hub.Register("bs", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	bs, err := NewBSAgent(inst, BSConfig{}, ep, []string{"sbs-0", "sbs-1", "sbs-2"})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := bs.Resume(ctx, nil); err == nil {
		t.Error("nil checkpoint: want error")
	}

	noisy := *ck
	noisy.HasNoise = true
	noisy.NoiseSeed = 7
	if _, err := bs.Resume(ctx, &noisy); err == nil || !strings.Contains(err.Error(), "noise") {
		t.Errorf("noise-bearing snapshot: got %v", err)
	}

	midSweep := *ck
	midSweep.Phase = 1
	if _, err := bs.Resume(ctx, &midSweep); err == nil || !strings.Contains(err.Error(), "boundaries") {
		t.Errorf("mid-sweep snapshot: got %v", err)
	}

	shuffled := *ck
	shuffled.Order = []int{2, 1, 0}
	if _, err := bs.Resume(ctx, &shuffled); err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("shuffled order: got %v", err)
	}

	// A checkpoint config without a sink is rejected at construction.
	if _, err := NewBSAgent(inst, BSConfig{Checkpoint: &core.CheckpointConfig{}}, ep,
		[]string{"sbs-0", "sbs-1", "sbs-2"}); err == nil {
		t.Error("checkpoint config without sink: want error")
	}
}

// TestBSAgentRejectsPerPhaseCheckpoints: the BS's γ-deferral state is
// intra-sweep and not captured, so a mid-sweep snapshot could not be
// resumed (Resume rejects Phase != 0). The constructor must refuse the
// cadence up front instead of writing snapshots nobody can use.
func TestBSAgentRejectsPerPhaseCheckpoints(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(92)), 3, 5, 6)
	ep, err := transport.NewHub().Register("bs", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: model.NewMemCheckpointStore(0), EachPhase: true}}
	_, err = NewBSAgent(inst, cfg, ep, []string{"sbs-0", "sbs-1", "sbs-2"})
	if err == nil || !strings.Contains(err.Error(), "EachPhase") {
		t.Fatalf("per-phase checkpoint cadence: got %v, want an EachPhase error", err)
	}
}

func TestSBSReplyCacheAndStaleFilter(t *testing.T) {
	// The SBS answers a duplicated announce from its reply cache (same
	// bytes, no re-solve) and drops announces older than the BS's announced
	// resume point.
	rng := rand.New(rand.NewSource(101))
	inst := randomInstance(rng, 2, 4, 5)
	ctx := testCtx(t)

	hub := transport.NewHub()
	bsEp, err := hub.Register("bs", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer bsEp.Close()
	sbsEp, err := hub.Register("sbs-0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sbsEp.Close()

	var events EventCounter
	agent, err := NewSBSAgent(inst, 0, core.DefaultSubproblemConfig(), nil, sbsEp, "bs")
	if err != nil {
		t.Fatal(err)
	}
	agent.SetEventHook(events.Hook())
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()

	yMinus := inst.NewUFMat()
	announce, err := buildAnnounce(2, 0, yMinus)
	if err != nil {
		t.Fatal(err)
	}
	recvUpload := func() transport.Message {
		t.Helper()
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		for {
			msg, err := bsEp.Recv(rctx)
			if err != nil {
				t.Fatalf("no upload: %v", err)
			}
			if msg.Type == transport.MsgPolicyUpload {
				return msg
			}
		}
	}

	if err := bsEp.Send(ctx, "sbs-0", announce); err != nil {
		t.Fatal(err)
	}
	first := recvUpload()
	if err := bsEp.Send(ctx, "sbs-0", announce); err != nil {
		t.Fatal(err)
	}
	second := recvUpload()
	if string(first.Payload) != string(second.Payload) {
		t.Fatal("duplicated announce answered with different bytes")
	}
	if got := events.Count(EventReplayedUpload); got != 1 {
		t.Errorf("replayed-upload events = %d, want 1", got)
	}

	// State-sync to sweep 3: the sweep-2 announce becomes a pre-crash ghost.
	payload, err := transport.EncodePayload(transport.StateSync{Sweep: 3, Phase: 0})
	if err != nil {
		t.Fatal(err)
	}
	sync := transport.Message{Type: transport.MsgStateSync, Sweep: 3, Phase: 0, Payload: payload}
	if err := bsEp.Send(ctx, "sbs-0", sync); err != nil {
		t.Fatal(err)
	}
	ackCtx, ackCancel := context.WithTimeout(ctx, 5*time.Second)
	defer ackCancel()
	for {
		msg, err := bsEp.Recv(ackCtx)
		if err != nil {
			t.Fatalf("no state-sync ack: %v", err)
		}
		if msg.Type == transport.MsgStateAck {
			if msg.Sweep != 3 {
				t.Fatalf("ack echoes sweep %d, want 3", msg.Sweep)
			}
			break
		}
	}

	if err := bsEp.Send(ctx, "sbs-0", announce); err != nil {
		t.Fatal(err)
	}
	// The stale announce must be dropped: no upload within a short window.
	quiet, quietCancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer quietCancel()
	for {
		msg, err := bsEp.Recv(quiet)
		if err != nil {
			break // silence — the ghost was filtered
		}
		if msg.Type == transport.MsgPolicyUpload {
			t.Fatal("stale announce was answered")
		}
	}
	if got := events.Count(EventStaleAnnounce); got != 1 {
		t.Errorf("stale-announce events = %d, want 1", got)
	}

	// The reply cache was cleared by the sync: a fresh announce at the
	// resume point is solved anew, not replayed.
	fresh, err := buildAnnounce(3, 0, yMinus)
	if err != nil {
		t.Fatal(err)
	}
	if err := bsEp.Send(ctx, "sbs-0", fresh); err != nil {
		t.Fatal(err)
	}
	recvUpload()
	if got := events.Count(EventReplayedUpload); got != 1 {
		t.Errorf("replayed-upload events after sync = %d, want still 1", got)
	}

	if err := bsEp.Send(ctx, "sbs-0", transport.Message{Type: transport.MsgDone}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("agent exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not stop on MsgDone")
	}
}
