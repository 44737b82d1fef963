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
	return runDeployment(t, ctx, inst, cfg, ck, sbsHook, -1)
}

// runDeployment is runProtocol with SBS silent (when non-negative) never
// started: its name is not even registered on the hub, so every send to it
// fails at once and every phase it owns runs out its window. Its slot in
// the returned agents is nil.
func runDeployment(t *testing.T, ctx context.Context, inst *model.Instance, cfg BSConfig,
	ck *model.Checkpoint, sbsHook EventHook, silent int) (*core.RunResult, []*SBSAgent, error) {
	t.Helper()
	hub := transport.NewHub()
	const bsName = "bs"
	bsEp, err := hub.Register(bsName, 4*inst.N+4)
	if err != nil {
		t.Fatal(err)
	}
	defer bsEp.Close()

	sbsNames := make([]string, inst.N)
	agents := make([]*SBSAgent, inst.N)
	for n := 0; n < inst.N; n++ {
		sbsNames[n] = "sbs-" + string(rune('0'+n))
		if n == silent {
			continue
		}
		ep, err := hub.Register(sbsNames[n], 8)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		agent, err := NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), nil, ep, bsName)
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
	started := 0
	for _, agent := range agents {
		if agent == nil {
			continue
		}
		agent := agent
		go func() { errCh <- agent.Run(agentCtx) }()
		started++
	}

	var res *core.RunResult
	var runErr error
	if ck != nil {
		res, runErr = bs.Resume(ctx, ck)
	} else {
		res, runErr = bs.Run(ctx)
	}
	cancelAgents()
	for i := 0; i < started; i++ {
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

	store := model.NewMemCheckpointStore()
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store}}
	got, _, err := runProtocol(t, ctx, inst, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	simBitEqual(t, got, want, "checkpointed protocol run")
	if store.Len() == 0 {
		t.Fatal("no snapshots captured")
	}
	for _, ck := range store.All() {
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

	store := model.NewMemCheckpointStore()
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store}}
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
	// A resumed BS rebroadcasts the resume point in a header-only
	// MsgStateSync: every live SBS must receive exactly one, record the
	// header's sweep, and acknowledge it within the handshake window.
	rng := rand.New(rand.NewSource(81))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	store := model.NewMemCheckpointStore()
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store}}
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
	for _, ev := range sbsEvents.Events() {
		if ev.Kind == EventStateSync && (ev.Sweep != ck.Sweep || ev.Phase != 0) {
			t.Errorf("SBS %d synced to (%d, %d), want the boundary of sweep %d",
				ev.SBS, ev.Sweep, ev.Phase, ck.Sweep)
		}
	}
	if got := bsEvents.Count(EventStateSyncMiss); got != 0 {
		t.Errorf("state-sync misses on clean links = %d, want 0", got)
	}
}

func TestSimResumeRestoresHealth(t *testing.T) {
	// A resumed BS must keep its per-SBS health and fault accounting: SBS 1
	// never answers, so its two misses, its quarantine, the phases skipped
	// while quarantined and its failed probes follow from the protocol
	// alone. A BS resumed from a snapshot taken inside the quarantine must
	// end with the uninterrupted run's fault counts, and its state-sync
	// must leave the quarantined SBS alone instead of waiting on it.
	rng := rand.New(rand.NewSource(22))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)
	const silent = 1
	cfg := BSConfig{PhaseTimeout: 300 * time.Millisecond, QuarantineSweeps: 2, MaxSweeps: 8}

	store := model.NewMemCheckpointStore()
	ckCfg := cfg
	ckCfg.Checkpoint = &core.CheckpointConfig{Sink: store}
	want, _, err := runDeployment(t, ctx, inst, ckCfg, nil, nil, silent)
	if err != nil {
		t.Fatal(err)
	}

	// Sweeps 0 and 1 miss SBS 1 (each full window retransmits the announce
	// AnnounceRetries = 2 times), the second miss quarantines it until its
	// probe at sweep 1+QuarantineSweeps+1 = 4, and sweep 2 skips its phase.
	// That is the record the BS holds at the boundary before sweep 3.
	const boundary = 3
	var ck *model.Checkpoint
	for _, c := range store.All() {
		if c.Sweep == boundary {
			ck = c
		}
	}
	if ck == nil {
		t.Fatalf("no snapshot at the boundary before sweep %d (run took %d sweeps)", boundary, want.Sweeps)
	}
	if len(ck.Health) != inst.N {
		t.Fatalf("snapshot holds %d health records, want %d", len(ck.Health), inst.N)
	}
	var live model.SBSHealthState
	live.Quarantined = true
	live.ProbeSweep = 4
	live.HoldConv = true
	live.Misses = quarantineAfter
	live.Retries = 2 * quarantineAfter
	live.QuarantineSpans = 1
	live.SkippedPhases = 1
	for n, h := range ck.Health {
		w := model.SBSHealthState{}
		if n == silent {
			w = live
		}
		if h != w {
			t.Errorf("snapshot health of SBS %d = %+v, want %+v", n, h, w)
		}
	}

	var events EventCounter
	resumeCfg := cfg
	resumeCfg.OnEvent = events.Hook()
	got, _, err := runDeployment(t, ctx, inst, resumeCfg, ck, nil, silent)
	if err != nil {
		t.Fatal(err)
	}
	simBitEqual(t, got, want, "resume inside the quarantine")
	if len(got.Faults) != inst.N || len(want.Faults) != inst.N {
		t.Fatalf("fault records: resumed %d, uninterrupted %d, want %d", len(got.Faults), len(want.Faults), inst.N)
	}
	for n := range want.Faults {
		if got.Faults[n] != want.Faults[n] {
			t.Errorf("SBS %d faults after resume = %+v, uninterrupted %+v", n, got.Faults[n], want.Faults[n])
		}
	}
	if f := want.Faults[silent]; f.FailedProbes < 1 || f.SkippedPhases < 2 {
		t.Errorf("silent SBS faults %+v: want a failed probe and both quarantined phases skipped", f)
	}
	for _, ev := range events.Events() {
		if ev.Kind == EventStateSyncMiss && ev.SBS == silent {
			t.Errorf("state-sync waited on the quarantined SBS %d", silent)
		}
	}
}

func TestSimResumeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	inst := randomInstance(rng, 3, 5, 6)
	ctx := testCtx(t)

	store := model.NewMemCheckpointStore()
	cfg := BSConfig{Checkpoint: &core.CheckpointConfig{Sink: store}}
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
	announce, err := buildAnnounce(make([][]float64, inst.U), 2, 0, yMinus)
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
	sync := transport.Message{Type: transport.MsgStateSync, Sweep: 3, Phase: 0}
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
	fresh, err := buildAnnounce(make([][]float64, inst.U), 3, 0, yMinus)
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
