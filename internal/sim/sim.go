// Package sim deploys Algorithm 1 as a real distributed protocol: one BS
// agent (coordinator/aggregator) and N SBS agents (sub-problem solvers)
// exchanging transport messages. This is the paper's operational setting —
// SBSs owned by different operators that reveal only their (LPPM-protected)
// routing uploads, never their internal state.
//
// Protocol per sweep τ, phase n (matching Algorithm 1 line by line):
//
//	BS  → SBS n: MsgPhaseStart{Sweep, Phase, AggregateAnnounce{y_{-n}}}
//	SBS n → BS:  MsgPolicyUpload{Sweep, Phase, PolicyUpload{x_n, ŷ_n}}
//
// and a final MsgDone broadcast. The BS tolerates SBS failures at three
// levels: the announce is retransmitted within the phase window
// (AnnounceRetries), a phase whose upload never arrives keeps the SBS's
// previous policy, and an SBS that misses two consecutive phases
// (quarantineAfter) is quarantined — its phases are skipped for
// QuarantineSweeps sweeps and a cheap rejoin probe bounded by
// PhaseTimeout/8 (instead of a full PhaseTimeout wait) decides when it is
// healthy again. Per-SBS fault accounting is returned on
// core.RunResult.Faults and every anomaly is observable through an
// EventHook.
//
// The BS does not keep its own sweep loop: it runs core's Gauss-Seidel
// engine under core.Driver, and only the answer to a phase — the announce,
// await and validate exchange above — is BS-specific (a core.PhaseFunc).
//
// With privacy disabled the protocol run is bit-for-bit equivalent to the
// in-process core.Coordinator; the integration tests assert this.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/transport"
)

// BSConfig tunes the BS agent.
type BSConfig struct {
	// Gamma and MaxSweeps follow core.Config (0 means core.Driver's
	// defaults).
	Gamma     float64
	MaxSweeps int
	// PhaseTimeout bounds the wait for one SBS upload. 0 means 30s.
	PhaseTimeout time.Duration
	// AnnounceRetries is how many times MsgPhaseStart is retransmitted
	// within one phase window (the window splits into AnnounceRetries+1
	// equal sub-windows, re-announcing at each boundary). Lost announces
	// and lost uploads are both recovered this way. 0 means 2; negative
	// disables retransmission.
	AnnounceRetries int
	// QuarantineSweeps is how many sweeps a quarantined SBS's phases are
	// skipped outright before a cheap rejoin probe is sent. 0 means 3.
	QuarantineSweeps int
	// OnEvent, when non-nil, observes protocol anomalies and
	// fault-handling actions (see EventKind). Must be fast and non-nil
	// safe across goroutines.
	OnEvent EventHook
	// Checkpoint, when non-nil, snapshots the BS's sweep state (policies,
	// aggregate, history, per-SBS health and fault accounting) to the
	// configured sink at every sweep boundary, enabling Resume after a
	// coordinator crash. A boundary is also where the BS's intra-sweep
	// γ-deferral state (a live SBS missed this sweep) is empty, so the
	// snapshot need not carry it.
	Checkpoint *core.CheckpointConfig
}

const (
	// quarantineAfter is the number of consecutive full-window misses
	// before an SBS is quarantined.
	quarantineAfter = 2
	// probeDivisor sets the rejoin-probe and state-sync wait to
	// PhaseTimeout/probeDivisor.
	probeDivisor = 8
)

func (c BSConfig) withDefaults() BSConfig {
	if c.PhaseTimeout <= 0 {
		c.PhaseTimeout = 30 * time.Second
	}
	if c.AnnounceRetries == 0 {
		c.AnnounceRetries = 2
	} else if c.AnnounceRetries < 0 {
		c.AnnounceRetries = 0
	}
	if c.QuarantineSweeps <= 0 {
		c.QuarantineSweeps = 3
	}
	return c
}

// BSAgent is the base-station side of the protocol. The BS knows the
// public instance data (demands, links — §I of the paper argues request
// information is the least sensitive data class) but never any SBS's
// internal solver state.
type BSAgent struct {
	inst     *model.Instance
	cfg      BSConfig
	ep       transport.Endpoint
	sbsNames []string

	// upRouting and upCache receive every upload in place (upRows are
	// upRouting's row views), so a phase decodes without allocating; the
	// returned block is read by core only until the phase installs it.
	upRouting model.Mat
	upRows    [][]float64
	upCache   []bool
	// annRows are row views of the announced y_{-n}, refilled per phase by
	// buildAnnounce.
	annRows [][]float64
}

// NewBSAgent builds the BS agent. sbsNames[n] is the endpoint name of
// SBS n and must have exactly N entries.
func NewBSAgent(inst *model.Instance, cfg BSConfig, ep transport.Endpoint, sbsNames []string) (*BSAgent, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if ep == nil {
		return nil, errors.New("sim: BS agent requires an endpoint")
	}
	if len(sbsNames) != inst.N {
		return nil, fmt.Errorf("sim: %d SBS names for N=%d SBSs", len(sbsNames), inst.N)
	}
	if ck := cfg.Checkpoint; ck != nil && ck.Sink == nil {
		return nil, errors.New("sim: checkpoint config requires a sink")
	}
	b := &BSAgent{inst: inst, cfg: cfg.withDefaults(), ep: ep, sbsNames: sbsNames,
		upRouting: inst.NewUFMat(), upCache: make([]bool, inst.F), annRows: make([][]float64, inst.U)}
	b.upRows = rowViews(make([][]float64, inst.U), b.upRouting)
	return b, nil
}

// event reports a protocol event to the configured hook, if any.
func (b *BSAgent) event(kind EventKind, sbs, sweep, phase int, err error) {
	if b.cfg.OnEvent != nil {
		b.cfg.OnEvent(Event{Kind: kind, SBS: sbs, Sweep: sweep, Phase: phase, Err: err})
	}
}

// Run drives the full protocol and returns the converged result. SBS
// agents must be running (or must join before their phase times out).
// Every Run starts with every SBS healthy and its fault counts at zero.
func (b *BSAgent) Run(ctx context.Context) (*core.RunResult, error) {
	return b.run(ctx, nil)
}

// Resume continues a crashed run from a snapshot: health and fault
// accounting are restored, live SBS agents are rehydrated with a
// MsgStateSync handshake, and the sweep loop continues from the recorded
// boundary. Without LPPM the resumed trajectory is bit-identical to the
// uninterrupted run's (the SBS solvers are deterministic and the snapshot
// carries the tracker's exact running sums); with LPPM the SBS agents
// redraw noise the BS cannot reposition, so only convergence — not
// bit-equality — is guaranteed.
func (b *BSAgent) Resume(ctx context.Context, ck *model.Checkpoint) (*core.RunResult, error) {
	if ck == nil {
		return nil, errors.New("sim: nil checkpoint")
	}
	if err := ck.Validate(b.inst); err != nil {
		return nil, err
	}
	if ck.HasNoise {
		return nil, errors.New("sim: checkpoint records an in-process noise stream; in the distributed deployment noise lives inside the SBS agents and the BS cannot restore it")
	}
	if ck.Engine.Family() != model.FamilyGaussSeidel {
		return nil, fmt.Errorf("sim: checkpoint records a %v-family engine; the BS protocol is a Gauss-Seidel sweep and cannot resume a %v run", ck.Engine.Family(), ck.Engine)
	}
	for i, v := range ck.Order {
		if v != i {
			return nil, fmt.Errorf("sim: BS agent sweeps SBSs in identity order; checkpoint order has %d at position %d", v, i)
		}
	}
	return b.run(ctx, ck)
}

// bsPhases answers the phases of core's Gauss-Seidel engine over the
// network: quarantine, probe, announce, await and validate. The BS thereby
// shares the exact phase loop and outer loop — cost evaluation, best
// tracking, γ stop, checkpoint cadence — with the in-process Coordinator,
// which is what keeps the two deployments bit-for-bit equivalent with
// privacy off.
type bsPhases struct {
	b   *BSAgent
	ctx context.Context
	// health is the BS's record of each SBS for this run, updated in place:
	// the checkpoint stores a copy, a resume starts from a copy, and
	// RunResult.Faults is read from it.
	health []model.SBSHealthState
	// sweepMissed records whether a live (non-quarantined) SBS missed its
	// phase in the current sweep; a frozen policy makes the cost
	// spuriously flat, so such sweeps must not satisfy the γ-criterion.
	sweepMissed bool
}

// holdConvergence implements the driver veto: the γ-criterion is deferred
// on sweeps where a live SBS missed and while any freshly-quarantined SBS
// awaits its first rejoin probe — in both cases the cost is flat only
// because policies are frozen, not because the algorithm has converged.
// The Driver consults it once after every sweep, which is when the
// per-sweep miss flag is cleared.
func (s *bsPhases) holdConvergence() bool {
	hold := s.sweepMissed
	s.sweepMissed = false
	for n := range s.health {
		hold = hold || s.health[n].HoldConv
	}
	return hold
}

// answer is the BS's core.PhaseFunc. ok=false (SBS quarantined, silent or
// malformed) keeps SBS n's previous policy and leaves the aggregate alone.
func (s *bsPhases) answer(_ *core.SweepState, sweep, n int, yMinus model.Mat) ([]bool, model.Mat, bool, error) {
	b := s.b
	h := &s.health[n]

	// Quarantined SBSs are skipped outright — no announce, no PhaseTimeout
	// burned — until their probe sweep comes up; then one cheap probe
	// (PhaseTimeout/probeDivisor) decides rejoin vs another quarantine span.
	probing := false
	timeout := b.cfg.PhaseTimeout
	if h.Quarantined {
		if sweep < h.ProbeSweep {
			h.SkippedPhases++
			return nil, model.Mat{}, false, nil
		}
		probing = true
		timeout = b.cfg.PhaseTimeout / probeDivisor
	}

	// The BS sweeps in identity order (validated at Resume), so phase n
	// belongs to SBS n.
	announce, err := buildAnnounce(b.annRows, sweep, n, yMinus)
	if err != nil {
		return nil, model.Mat{}, false, err
	}
	b.sendAnnounce(s.ctx, sweep, n, announce)
	upload, ok, err := s.awaitUpload(sweep, n, timeout, announce)
	if err != nil {
		return nil, model.Mat{}, false, err
	}
	if !ok {
		// SBS unreachable this phase: keep its old policy.
		if probing {
			h.FailedProbes++
			h.QuarantineSpans++
			h.ProbeSweep = sweep + b.cfg.QuarantineSweeps + 1
			// The first probe of the outage went unanswered: the SBS is
			// treated as persistently dead and no longer delays
			// convergence.
			h.HoldConv = false
			b.event(EventProbeFailed, n, sweep, n, nil)
			b.event(EventQuarantine, n, sweep, n, nil)
		} else {
			h.Misses++
			h.ConsecMisses++
			s.sweepMissed = true
			b.event(EventUploadTimeout, n, sweep, n, nil)
			if h.ConsecMisses >= quarantineAfter {
				h.Quarantined = true
				h.ConsecMisses = 0
				h.QuarantineSpans++
				h.ProbeSweep = sweep + b.cfg.QuarantineSweeps + 1
				h.HoldConv = true
				b.event(EventQuarantine, n, sweep, n, nil)
			}
		}
		return nil, model.Mat{}, false, nil
	}
	if h.Quarantined {
		h.Quarantined = false
		h.HoldConv = false
		b.event(EventRejoin, n, sweep, n, nil)
	}
	h.ConsecMisses = 0
	routing, err := b.checkUpload(n, upload)
	if err != nil {
		// A malformed upload is treated like a missing one: the previous
		// policy stays in force.
		h.Malformed++
		b.event(EventMalformedUpload, n, sweep, n, err)
		return nil, model.Mat{}, false, nil
	}
	return upload.Cache, routing, true, nil
}

func (b *BSAgent) run(ctx context.Context, ck *model.Checkpoint) (*core.RunResult, error) {
	inst := b.inst
	phases := &bsPhases{b: b, ctx: ctx, health: make([]model.SBSHealthState, inst.N)}
	var st *core.SweepState
	if ck != nil {
		st = core.SweepStateFromCheckpoint(inst, ck)
		// A checkpoint without health records (one captured by the
		// in-process Coordinator) leaves every SBS healthy.
		copy(phases.health, ck.Health)
		phases.stateSync(ck.Sweep)
	} else {
		order := make([]int, inst.N)
		for i := range order {
			order[i] = i
		}
		st = core.NewSweepState(inst, order)
	}
	d := &core.Driver{
		Inst:            inst,
		Gamma:           b.cfg.Gamma,
		MaxSweeps:       b.cfg.MaxSweeps,
		HoldConvergence: phases.holdConvergence,
	}
	if ckpt := b.cfg.Checkpoint; ckpt != nil {
		d.Snapshot = func(st *core.SweepState, res *core.RunResult, sweep int) error {
			return b.snapshot(ckpt.Sink, st, res, phases.health, sweep)
		}
	}
	res, err := d.Run(core.NewGaussSeidelEngine(inst, phases.answer), st)
	if err != nil {
		return nil, err
	}
	res.Faults = make([]core.SBSFaultStats, inst.N)
	for n, h := range phases.health {
		res.Faults[n] = h.SBSFaultStats
	}
	b.broadcastDone(ctx)
	return res, nil
}

// buildAnnounce renders the phase-start message carrying y_{-n}, encoded
// straight from the flat matrix through views (len yMinus.U), which it
// refills.
func buildAnnounce(views [][]float64, sweep, n int, yMinus model.Mat) (transport.Message, error) {
	payload, err := transport.EncodePayload(transport.AggregateAnnounce{
		YMinus: rowViews(views, yMinus),
	})
	if err != nil {
		return transport.Message{}, err
	}
	return transport.Message{Type: transport.MsgPhaseStart, Sweep: sweep, Phase: n, Payload: payload}, nil
}

// sendAnnounce delivers a phase-start to SBS n. Send failures are not
// fatal (the await will time out and the health machinery takes over),
// but they are surfaced to the event hook.
func (b *BSAgent) sendAnnounce(ctx context.Context, sweep, n int, msg transport.Message) {
	if err := b.ep.Send(ctx, b.sbsNames[n], msg); err != nil {
		b.event(EventSendFailed, n, sweep, n, err)
	}
}

// awaitUpload waits up to timeout for SBS n's upload for (sweep, n),
// discarding stale or duplicated messages. The window is split into
// AnnounceRetries+1 sub-windows and the announce message is
// retransmitted at each boundary, so a single lost announce or upload
// costs one sub-window, not the whole phase. The retransmission is
// byte-identical (y_{-n} cannot change within a phase) and the SBS's
// solver is deterministic, so a double-delivered announce is harmless.
// ok=false signals a timeout.
func (s *bsPhases) awaitUpload(sweep, n int, timeout time.Duration,
	announce transport.Message) (transport.PolicyUpload, bool, error) {
	b, ctx := s.b, s.ctx
	// Probes retransmit like regular phases: a probe's cost is its
	// (short) timeout, not its sends, and on lossy links a single-shot
	// probe would fail even against a healthy rejoined SBS.
	retries := b.cfg.AnnounceRetries
	sub := timeout / time.Duration(retries+1)
	overall, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for attempt := 0; ; attempt++ {
		waitCtx, waitCancel := overall, context.CancelFunc(func() {})
		if attempt < retries {
			waitCtx, waitCancel = context.WithTimeout(overall, sub)
		}
		upload, ok, err := s.recvUpload(waitCtx, sweep, n)
		waitCancel()
		if err != nil || ok {
			return upload, ok, err
		}
		// Sub-window expired. Give up when the full window (or the parent
		// context) is spent; otherwise retransmit the announcement.
		if ctx.Err() != nil {
			return transport.PolicyUpload{}, false, ctx.Err()
		}
		if overall.Err() != nil {
			return transport.PolicyUpload{}, false, nil
		}
		s.health[n].Retries++
		b.event(EventAnnounceRetry, n, sweep, n, nil)
		b.sendAnnounce(ctx, sweep, n, announce)
	}
}

// recvUpload drains the inbox until SBS n's upload for (sweep, n) arrives
// or the context expires. A deadline returns ok=false with a nil error;
// any other receive failure is fatal.
func (s *bsPhases) recvUpload(ctx context.Context, sweep, n int) (transport.PolicyUpload, bool, error) {
	b := s.b
	for {
		msg, err := b.ep.Recv(ctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil {
				return transport.PolicyUpload{}, false, nil
			}
			return transport.PolicyUpload{}, false, err
		}
		if msg.Type != transport.MsgPolicyUpload || msg.Sweep != sweep || msg.Phase != n ||
			msg.From != b.sbsNames[n] {
			continue // stale, duplicated or foreign message
		}
		upload := transport.PolicyUpload{Cache: b.upCache, Routing: b.upRows}
		if err := transport.DecodePayload(msg.Payload, &upload); err != nil {
			// Undecodable upload: count it and keep waiting — a
			// retransmission may still deliver a good copy in-window.
			s.health[n].Malformed++
			b.event(EventBadUpload, n, sweep, n, err)
			continue
		}
		return upload, true, nil
	}
}

// checkUpload validates SBS n's upload and returns its routing block,
// b.upRouting: the shapes must match the instance (exactly the case in
// which recvUpload decoded into b.upRouting), every routing entry must lie
// in [0, 1], and the upload must meet SBS n's own constraints
// (model.CheckSBS: cache capacity, routing only on cached contents and
// linked users, bandwidth), as the solver's routing and its LPPM
// perturbation always do — LPPM keeps zeros at zero and only shrinks
// values. A NaN or infinite entry would
// otherwise poison the aggregate for the rest of the run (agg − y_n stays
// NaN once agg is), and a rogue upload would make the run's solution
// infeasible.
func (b *BSAgent) checkUpload(n int, up transport.PolicyUpload) (model.Mat, error) {
	inst := b.inst
	if len(up.Cache) != inst.F {
		return model.Mat{}, fmt.Errorf("sim: SBS %d cache vector has %d entries, want %d", n, len(up.Cache), inst.F)
	}
	if u, f := rowsShape(up.Routing); u != inst.U || f != inst.F {
		return model.Mat{}, fmt.Errorf("sim: SBS %d routing is %dx%d, want %dx%d", n, u, f, inst.U, inst.F)
	}
	for u, row := range up.Routing {
		for f, v := range row {
			if !(v >= 0 && v <= 1) { // NaN fails both comparisons
				return model.Mat{}, fmt.Errorf("sim: SBS %d routing entry (%d,%d) = %v is outside [0,1]", n, u, f, v)
			}
		}
	}
	if vs := model.CheckSBS(inst, n, up.Cache, b.upRouting); len(vs) != 0 {
		return model.Mat{}, fmt.Errorf("sim: SBS %d upload breaks its own constraints: %v", n, vs[0])
	}
	return b.upRouting, nil
}

// rowViews points dst's rows at m's and returns dst (len m.U).
func rowViews(dst [][]float64, m model.Mat) [][]float64 {
	for u := range dst {
		dst[u] = m.Row(u)
	}
	return dst
}

// rowsShape returns the U×F shape of a decoded block; DecodePayload's rows
// are always rectangular.
func rowsShape(rows [][]float64) (u, f int) {
	if len(rows) > 0 {
		f = len(rows[0])
	}
	return len(rows), f
}

// broadcastDone tells every SBS the run finished; failures are ignored
// (an SBS that already left does not need the message).
func (b *BSAgent) broadcastDone(ctx context.Context) {
	for _, name := range b.sbsNames {
		_ = b.ep.Send(ctx, name, transport.Message{Type: transport.MsgDone})
	}
}

// snapshot captures the BS's sweep state as of boundary sweep and hands it
// to the sink. Unlike core.Coordinator the BS agent also records a copy of
// its per-SBS health records, so a resumed BS keeps quarantine spans,
// probe schedules and fault counts instead of re-learning which SBSs are
// dead.
func (b *BSAgent) snapshot(sink model.CheckpointSink, st *core.SweepState, res *core.RunResult,
	health []model.SBSHealthState, sweep int) error {
	ck := st.Checkpoint(b.inst, model.EngineGaussSeidel, res.History, sweep)
	ck.Health = append([]model.SBSHealthState(nil), health...)
	if err := sink.Save(ck); err != nil {
		return fmt.Errorf("sim: checkpoint at sweep %d: %w", sweep, err)
	}
	return nil
}

// stateSync rebroadcasts the resume point to every non-quarantined SBS so
// live agents drop pre-crash ghosts and their reply caches. The sync is
// header-only (Sweep and Phase) and carries no policy: an SBS's solve
// depends only on the announced y_{-n}. Acks are gathered within one
// probe window (PhaseTimeout/probeDivisor); a missing ack is observable
// (EventStateSyncMiss) but never fatal — the phase-timeout machinery owns
// recovery, exactly as for lost announces.
func (s *bsPhases) stateSync(sweep int) {
	b, ctx := s.b, s.ctx
	awaiting := make([]bool, b.inst.N)
	expected := 0
	for n, name := range b.sbsNames {
		if s.health[n].Quarantined {
			continue // known-dead: do not stall the handshake on it
		}
		msg := transport.Message{Type: transport.MsgStateSync, Sweep: sweep}
		if err := b.ep.Send(ctx, name, msg); err != nil {
			b.event(EventSendFailed, n, sweep, 0, err)
		}
		awaiting[n] = true
		expected++
	}
	if expected == 0 {
		return
	}
	waitCtx, cancel := context.WithTimeout(ctx, b.cfg.PhaseTimeout/probeDivisor)
	defer cancel()
	for acked := 0; acked < expected; {
		msg, err := b.ep.Recv(waitCtx)
		if err != nil {
			break
		}
		if msg.Type != transport.MsgStateAck || msg.Sweep != sweep {
			continue
		}
		for n, name := range b.sbsNames {
			if name == msg.From && awaiting[n] {
				awaiting[n] = false
				acked++
				break
			}
		}
	}
	for n, w := range awaiting {
		if w {
			b.event(EventStateSyncMiss, n, sweep, 0, nil)
		}
	}
}

// SBSAgent is the small-base-station side: it waits for phase
// announcements, solves its sub-problem P_n, optionally applies LPPM to the
// routing before it leaves the premises, and uploads the result.
type SBSAgent struct {
	n      int
	sub    *core.Subproblem
	lppm   *core.LPPM
	ep     transport.Endpoint
	bsName string
	hook   EventHook

	// syncSweep is the sweep boundary of the last BS resume received via
	// MsgStateSync; announces of earlier sweeps are pre-crash ghosts and
	// are dropped (EventStaleAnnounce).
	syncSweep int
	// lastSweep/lastPhase/lastReply cache the most recent upload so a
	// duplicated announce (BS retransmission, or replay across a BS
	// restart at the same protocol point) is answered byte-identically
	// without re-solving — and, under LPPM, without drawing fresh noise
	// for a protocol point already answered.
	lastSweep, lastPhase int
	lastReply            []byte

	// yMinus receives every announced y_{-n} in place (yRows are its row
	// views), so a phase decodes without allocating; upRows are row views
	// of the routing being uploaded, refilled per phase.
	yMinus model.Mat
	yRows  [][]float64
	upRows [][]float64
}

// NewSBSAgent builds the agent for SBS n. privacy may be nil. The SBS uses
// the shared public instance data plus its own private columns; the solver
// never sees another SBS's routing, only the BS aggregate.
func NewSBSAgent(inst *model.Instance, n int, sub core.SubproblemConfig,
	privacy *core.PrivacyConfig, ep transport.Endpoint, bsName string) (*SBSAgent, error) {
	if ep == nil {
		return nil, errors.New("sim: SBS agent requires an endpoint")
	}
	if bsName == "" {
		return nil, errors.New("sim: SBS agent requires the BS endpoint name")
	}
	solver, err := core.NewSubproblem(inst, n, sub)
	if err != nil {
		return nil, err
	}
	a := &SBSAgent{n: n, sub: solver, ep: ep, bsName: bsName, lastSweep: -1, lastPhase: -1,
		yMinus: inst.NewUFMat(), upRows: make([][]float64, inst.U)}
	a.yRows = rowViews(make([][]float64, inst.U), a.yMinus)
	if privacy != nil {
		lppm, err := core.NewLPPM(*privacy)
		if err != nil {
			return nil, err
		}
		a.lppm = lppm
	}
	return a, nil
}

// SetEventHook installs an observer for protocol anomalies (malformed or
// unsolvable announcements, failed upload sends). Call before Run.
func (a *SBSAgent) SetEventHook(h EventHook) { a.hook = h }

// event reports a protocol event to the configured hook, if any.
func (a *SBSAgent) event(kind EventKind, sweep, phase int, err error) {
	if a.hook != nil {
		a.hook(Event{Kind: kind, SBS: a.n, Sweep: sweep, Phase: phase, Err: err})
	}
}

// Run serves phase announcements until MsgDone or context cancellation.
// A cancelled context returns ctx.Err(); MsgDone returns nil.
func (a *SBSAgent) Run(ctx context.Context) error {
	for {
		msg, err := a.ep.Recv(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch msg.Type {
		case transport.MsgDone:
			return nil
		case transport.MsgPhaseStart:
			if err := a.handlePhase(ctx, msg); err != nil {
				return err
			}
		case transport.MsgStateSync:
			a.handleStateSync(ctx, msg)
		default:
			// Unexpected message: ignore (robustness against duplicates).
		}
	}
}

func (a *SBSAgent) handlePhase(ctx context.Context, msg transport.Message) error {
	// Announces older than the BS's announced resume point are pre-crash
	// ghosts still in flight; answering them would upload state the
	// resumed BS has already rolled past.
	if msg.Sweep < a.syncSweep {
		a.event(EventStaleAnnounce, msg.Sweep, msg.Phase, nil)
		return nil
	}
	// A duplicated announce for the point just answered is served from the
	// reply cache: re-solving is wasted work, and under LPPM it would draw
	// fresh noise — spending privacy budget twice on one protocol point.
	if a.lastReply != nil && msg.Sweep == a.lastSweep && msg.Phase == a.lastPhase {
		a.event(EventReplayedUpload, msg.Sweep, msg.Phase, nil)
		return a.sendReply(ctx, msg.Sweep, msg.Phase, a.lastReply)
	}
	ann := transport.AggregateAnnounce{YMinus: a.yRows}
	if err := transport.DecodePayload(msg.Payload, &ann); err != nil {
		// Malformed announcement: skip; the BS will retransmit or time out.
		a.event(EventBadAnnounce, msg.Sweep, msg.Phase, err)
		return nil
	}
	// A body of the instance's shape was decoded into a.yMinus; any other
	// shape landed in fresh rows and cannot be solved.
	if u, f := rowsShape(ann.YMinus); u != a.yMinus.U || f != a.yMinus.F {
		a.event(EventUnsolvable, msg.Sweep, msg.Phase,
			fmt.Errorf("sim: announce is %dx%d, want %dx%d", u, f, a.yMinus.U, a.yMinus.F))
		return nil
	}
	res, err := a.sub.Solve(a.yMinus)
	if err != nil {
		a.event(EventUnsolvable, msg.Sweep, msg.Phase, err)
		return nil
	}
	routing := res.Routing
	if a.lppm != nil {
		routing, err = a.lppm.Perturb(a.ep.Name(), res.Routing)
		if err != nil {
			return err
		}
	}
	payload, err := transport.EncodePayload(transport.PolicyUpload{Cache: res.Cache, Routing: rowViews(a.upRows, routing)})
	if err != nil {
		return err
	}
	a.lastSweep, a.lastPhase, a.lastReply = msg.Sweep, msg.Phase, payload
	return a.sendReply(ctx, msg.Sweep, msg.Phase, payload)
}

// sendReply uploads a (possibly cached) policy payload for (sweep, phase).
// Send failures are non-fatal — the BS's timeout machinery owns recovery —
// unless the context itself is done.
func (a *SBSAgent) sendReply(ctx context.Context, sweep, phase int, payload []byte) error {
	reply := transport.Message{
		Type:    transport.MsgPolicyUpload,
		Sweep:   sweep,
		Phase:   phase,
		Payload: payload,
	}
	if err := a.ep.Send(ctx, a.bsName, reply); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.event(EventSendFailed, sweep, phase, err)
	}
	return nil
}

// handleStateSync rehydrates the agent after a BS resume: it records the
// resume point from the header (the stale-announce filter), drops the
// reply cache (pre-crash uploads must not answer post-resume announces)
// and acknowledges.
func (a *SBSAgent) handleStateSync(ctx context.Context, msg transport.Message) {
	a.syncSweep = msg.Sweep
	a.lastSweep, a.lastPhase, a.lastReply = -1, -1, nil
	a.event(EventStateSync, msg.Sweep, msg.Phase, nil)
	ack := transport.Message{Type: transport.MsgStateAck, Sweep: msg.Sweep, Phase: msg.Phase}
	if err := a.ep.Send(ctx, a.bsName, ack); err != nil {
		a.event(EventSendFailed, msg.Sweep, msg.Phase, err)
	}
}
