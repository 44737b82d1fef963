package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/sim"
	"edgecache/internal/transport"
)

// Config wires one chaos run.
type Config struct {
	// BS tunes the BS agent; its OnEvent hook (if any) is preserved and
	// fed alongside the report's own counter.
	BS sim.BSConfig
	// Sub is the per-SBS sub-problem configuration.
	Sub core.SubproblemConfig
	// PrivacyFor, when non-nil, supplies per-SBS LPPM configurations
	// (mirrors sim.RunInmem).
	PrivacyFor func(n int) *core.PrivacyConfig
	// Schedule is the fault plan.
	Schedule Schedule
}

// FiredEvent records a scheduled event and the protocol point at which it
// actually fired (>= its trigger point when phases were skipped).
type FiredEvent struct {
	Event
	AtSweep, AtPhase int
}

// Report is what the chaos run observed.
type Report struct {
	// Fired lists the executed events in firing order; events whose
	// trigger point was never reached (run ended first) are in Unfired.
	Fired   []FiredEvent
	Unfired []Event
	// Counter aggregates every protocol anomaly seen by the BS and SBS
	// event hooks during the run.
	Counter *sim.EventCounter
}

// runner owns the live state of one chaos run.
type runner struct {
	inst    *model.Instance
	cfg     Config
	hub     *transport.Hub
	counter *sim.EventCounter
	baseCtx context.Context
	wg      sync.WaitGroup

	mu          sync.Mutex
	pending     []Event
	fired       []FiredEvent
	slots       []*sbsSlot
	bsLink      *link
	partitioned map[string]bool

	// BS lifecycle: bsCancel kills the current BS incarnation (OpBSCrash),
	// bsCrashed distinguishes a scheduled crash from a genuine run error,
	// bsRestarts queues the scheduled recoveries (consumed on crash, not
	// fired at a protocol point — protocol time is frozen while the BS is
	// down) and bsFaults tracks the BS link's current fault configuration
	// so a restarted incarnation inherits it.
	bsCancel   context.CancelFunc
	bsCrashed  bool
	bsRestarts []Event
	bsFaults   transport.FaultConfig
	// doneSent holds the SBS names whose inbox a MsgDone entered.
	doneSent map[string]bool
}

// sbsSlot tracks one SBS position: its current agent (if alive), link and
// fault configuration (inherited across restarts).
type sbsSlot struct {
	name       string
	alive      bool
	generation int
	link       *link
	cancel     context.CancelFunc
	faults     transport.FaultConfig
}

const bsName = "bs"

// Run executes the fault schedule against a full protocol run over an
// in-memory hub and returns the BS result plus the chaos report. The run
// is deterministic for a fixed instance, configuration and schedule up to
// goroutine scheduling of in-flight messages (the schedule itself always
// fires at the same protocol points).
func Run(ctx context.Context, inst *model.Instance, cfg Config) (*core.RunResult, *Report, error) {
	if err := inst.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.Schedule.Validate(inst.N); err != nil {
		return nil, nil, err
	}
	agentCtx, cancelAgents := context.WithCancel(ctx)
	defer cancelAgents()
	r := &runner{
		inst:        inst,
		cfg:         cfg,
		hub:         transport.NewHub(),
		counter:     &sim.EventCounter{},
		baseCtx:     agentCtx,
		partitioned: make(map[string]bool),
		bsFaults:    cfg.Schedule.Links,
		doneSent:    make(map[string]bool),
	}
	// BS restarts are consumed by the incarnation loop below, not fired at
	// a protocol point, so they live in their own queue.
	for _, ev := range cfg.Schedule.sortedEvents() {
		if ev.Op == OpBSRestart {
			r.bsRestarts = append(r.bsRestarts, ev)
		} else {
			r.pending = append(r.pending, ev)
		}
	}

	sbsNames := make([]string, inst.N)
	for n := 0; n < inst.N; n++ {
		sbsNames[n] = fmt.Sprintf("sbs-%d", n)
		slot := &sbsSlot{name: sbsNames[n], faults: cfg.Schedule.Links}
		r.slots = append(r.slots, slot)
		if err := r.startAgent(n); err != nil {
			return nil, nil, err
		}
	}

	bsCfg := cfg.BS
	bsCfg.OnEvent = sim.MultiHook(cfg.BS.OnEvent, r.counter.Hook())
	// A schedule that crashes the BS needs somewhere to recover from:
	// default to an in-memory store snapshotting every sweep boundary.
	if bsCfg.Checkpoint == nil && hasBSCrash(cfg.Schedule) {
		bsCfg.Checkpoint = &core.CheckpointConfig{Sink: model.NewMemCheckpointStore()}
	}

	// startBS brings up one BS endpoint incarnation.
	var bsEp *controller
	startBS := func(gen int) error {
		rawBS, err := r.hub.Register(bsName, 8*inst.N+8)
		if err != nil {
			return fmt.Errorf("chaos: start BS generation %d: %w", gen, err)
		}
		r.mu.Lock()
		faults := r.bsFaults
		r.mu.Unlock()
		lk, err := newLink(doneTap{Endpoint: rawBS, r: r}, faults, r.linkSeed(-1, gen))
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.bsLink = lk
		r.mu.Unlock()
		bsEp = &controller{r: r, inner: lk}
		return nil
	}
	if err := startBS(0); err != nil {
		return nil, nil, err
	}
	defer func() { bsEp.Close() }()

	// The BS incarnation loop: run (or resume) the coordinator until it
	// finishes, fails for real, or is crashed by the schedule; a scheduled
	// crash with a queued restart recovers from the newest checkpoint.
	var (
		res    *core.RunResult
		runErr error
		ck     *model.Checkpoint
	)
	for gen := 0; ; gen++ {
		bs, err := sim.NewBSAgent(inst, bsCfg, bsEp, sbsNames)
		if err != nil {
			return nil, nil, err
		}
		bsCtx, bsCancel := context.WithCancel(ctx)
		r.mu.Lock()
		r.bsCancel = bsCancel
		r.bsCrashed = false
		r.mu.Unlock()
		if ck != nil {
			res, runErr = bs.Resume(bsCtx, ck)
		} else {
			res, runErr = bs.Run(bsCtx)
		}
		bsCancel()
		r.mu.Lock()
		crashed := r.bsCrashed
		haveRestart := len(r.bsRestarts) > 0
		var restart Event
		if crashed && haveRestart {
			restart = r.bsRestarts[0]
			r.bsRestarts = r.bsRestarts[1:]
		}
		r.mu.Unlock()
		if !crashed || ctx.Err() != nil {
			break
		}
		if !haveRestart {
			runErr = fmt.Errorf("chaos: BS crashed with no scheduled restart: %w", runErr)
			break
		}
		// Tear down the dead incarnation (unregisters the BS name) and
		// recover from the newest decodable checkpoint; none means the
		// crash predates the first sweep boundary and the BS starts cold.
		bsEp.Close()
		if err := startBS(gen + 1); err != nil {
			return nil, nil, err
		}
		ck = nil
		if bsCfg.Checkpoint != nil {
			if src, ok := bsCfg.Checkpoint.Sink.(model.CheckpointSource); ok {
				c, err := src.Latest()
				switch {
				case err == nil:
					ck = c
				case errors.Is(err, model.ErrNoCheckpoint):
				default:
					return nil, nil, fmt.Errorf("chaos: recover checkpoint: %w", err)
				}
			}
		}
		at := 0
		if ck != nil {
			at = ck.Sweep
		}
		r.mu.Lock()
		r.fired = append(r.fired, FiredEvent{Event: restart, AtSweep: at, AtPhase: 0})
		r.mu.Unlock()
	}

	// An agent whose inbox holds a MsgDone returns on its own once it has
	// drained what is queued ahead of it (a duplicated final announce, say),
	// so every event of the final sweep is counted; cancelling it early
	// would cut that drain short. Only agents MsgDone never reached are
	// cancelled.
	r.mu.Lock()
	for _, slot := range r.slots {
		if slot.alive && !r.doneSent[slot.name] {
			slot.cancel()
		}
	}
	r.mu.Unlock()
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		return nil, nil, fmt.Errorf("chaos: SBS agents failed to stop")
	}
	return res, r.report(), runErr
}

// hasBSCrash reports whether the schedule contains an OpBSCrash.
func hasBSCrash(s Schedule) bool {
	for _, ev := range s.Events {
		if ev.Op == OpBSCrash {
			return true
		}
	}
	return false
}

// report assembles the final chaos report.
func (r *runner) report() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	unfired := append(append([]Event(nil), r.pending...), r.bsRestarts...)
	return &Report{Fired: r.fired, Unfired: unfired, Counter: r.counter}
}

// linkSeed derives a deterministic per-link, per-generation seed (-1 is
// the BS link).
func (r *runner) linkSeed(n, generation int) int64 {
	return r.cfg.Schedule.Seed*1_000_003 + int64(n+2)*1009 + int64(generation)*97
}

// startAgent registers a fresh endpoint for SBS n and launches its agent.
// Callers must not hold r.mu.
func (r *runner) startAgent(n int) error {
	r.mu.Lock()
	slot := r.slots[n]
	faults := slot.faults
	generation := slot.generation
	r.mu.Unlock()

	raw, err := r.hub.Register(slot.name, 16)
	if err != nil {
		return fmt.Errorf("chaos: restart %s: %w", slot.name, err)
	}
	lk, err := newLink(raw, faults, r.linkSeed(n, generation))
	if err != nil {
		return err
	}
	var privacy *core.PrivacyConfig
	if r.cfg.PrivacyFor != nil {
		privacy = r.cfg.PrivacyFor(n)
	}
	agent, err := sim.NewSBSAgent(r.inst, n, r.cfg.Sub, privacy, lk, bsName)
	if err != nil {
		return err
	}
	agent.SetEventHook(r.counter.Hook())
	actx, cancel := context.WithCancel(r.baseCtx)

	r.mu.Lock()
	slot.link = lk
	slot.cancel = cancel
	slot.alive = true
	slot.generation++
	r.mu.Unlock()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = agent.Run(actx) // exits on MsgDone, crash-cancel or run teardown
	}()
	return nil
}

// fire executes every pending event whose trigger point is at or before
// (sweep, phase).
func (r *runner) fire(sweep, phase int) {
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return
		}
		ev := r.pending[0]
		if ev.Sweep > sweep || (ev.Sweep == sweep && ev.Phase > phase) {
			r.mu.Unlock()
			return
		}
		r.pending = r.pending[1:]
		r.fired = append(r.fired, FiredEvent{Event: ev, AtSweep: sweep, AtPhase: phase})
		r.mu.Unlock()
		r.apply(ev)
	}
}

// apply executes one fault event. Errors are deliberately impossible by
// construction (the schedule was validated); registration races on
// restart leave the slot dead, which the protocol tolerates like any
// other crash.
func (r *runner) apply(ev Event) {
	switch ev.Op {
	case OpCrash:
		r.mu.Lock()
		slot := r.slots[ev.SBS]
		alive, cancel, lk := slot.alive, slot.cancel, slot.link
		slot.alive = false
		r.mu.Unlock()
		if alive {
			cancel()
			lk.Close() // unregisters the name; sends to it now fail
		}
	case OpRestart:
		r.mu.Lock()
		alive := r.slots[ev.SBS].alive
		r.mu.Unlock()
		if !alive {
			_ = r.startAgent(ev.SBS)
		}
	case OpPartition:
		r.mu.Lock()
		slot := r.slots[ev.SBS]
		lk := slot.link
		r.partitioned[slot.name] = true
		if ev.Phases > 0 {
			healSweep, healPhase := advance(ev.Sweep, ev.Phase, ev.Phases, r.inst.N)
			heal := Event{Sweep: healSweep, Phase: healPhase, SBS: ev.SBS, Op: OpHeal}
			r.pending = insertSorted(r.pending, heal)
		}
		r.mu.Unlock()
		if lk != nil {
			lk.setCut(true)
		}
	case OpHeal:
		r.mu.Lock()
		slot := r.slots[ev.SBS]
		lk := slot.link
		delete(r.partitioned, slot.name)
		r.mu.Unlock()
		if lk != nil {
			lk.setCut(false)
		}
	case OpBSCrash:
		// Cancel the current BS incarnation's context; its Run returns an
		// error and the incarnation loop decides whether a restart is due.
		r.mu.Lock()
		cancel := r.bsCancel
		r.bsCrashed = true
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	case OpBSRestart:
		// Never reaches apply: restarts live in their own queue and are
		// consumed by the incarnation loop after a crash.
	case OpLinkFaults:
		if ev.SBS == -1 {
			r.mu.Lock()
			r.bsFaults = ev.Faults
			bsLink := r.bsLink
			r.mu.Unlock()
			_ = bsLink.setFaults(ev.Faults, r.linkSeed(-1, 1))
			r.mu.Lock()
			slots := append([]*sbsSlot(nil), r.slots...)
			r.mu.Unlock()
			for n, slot := range slots {
				r.mu.Lock()
				slot.faults = ev.Faults
				lk := slot.link
				r.mu.Unlock()
				if lk != nil {
					_ = lk.setFaults(ev.Faults, r.linkSeed(n, slot.generation))
				}
			}
		} else {
			r.mu.Lock()
			slot := r.slots[ev.SBS]
			slot.faults = ev.Faults
			lk := slot.link
			generation := slot.generation
			r.mu.Unlock()
			if lk != nil {
				_ = lk.setFaults(ev.Faults, r.linkSeed(ev.SBS, generation))
			}
		}
	}
}

// isPartitioned reports whether outbound traffic to the named peer is cut.
func (r *runner) isPartitioned(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.partitioned[name]
}

// insertSorted adds ev keeping the pending list ordered by trigger point.
func insertSorted(pending []Event, ev Event) []Event {
	i := 0
	for i < len(pending) && (pending[i].Sweep < ev.Sweep ||
		(pending[i].Sweep == ev.Sweep && pending[i].Phase <= ev.Phase)) {
		i++
	}
	pending = append(pending, Event{})
	copy(pending[i+1:], pending[i:])
	pending[i] = ev
	return pending
}

// controller is the BS-side chaos tap: every phase announcement advances
// protocol time and fires due events before the message leaves, so the
// schedule executes at deterministic protocol points. Outbound traffic to
// partitioned SBSs is discarded here (the SBS-side link cuts the reverse
// direction).
type controller struct {
	r     *runner
	inner transport.Endpoint
}

var _ transport.Endpoint = (*controller)(nil)

func (c *controller) Name() string { return c.inner.Name() }

func (c *controller) Send(ctx context.Context, to string, m transport.Message) error {
	if m.Type == transport.MsgPhaseStart {
		c.r.fire(m.Sweep, m.Phase)
	}
	if c.r.isPartitioned(to) {
		return nil // silently lost across the partition
	}
	return c.inner.Send(ctx, to, m)
}

func (c *controller) Recv(ctx context.Context) (transport.Message, error) {
	return c.inner.Recv(ctx)
}

func (c *controller) Close() error { return c.inner.Close() }

// doneTap sits under the BS link's faults, directly on the hub, and
// records which SBS inboxes a MsgDone actually entered.
type doneTap struct {
	transport.Endpoint
	r *runner
}

func (d doneTap) Send(ctx context.Context, to string, m transport.Message) error {
	err := d.Endpoint.Send(ctx, to, m)
	if err == nil && m.Type == transport.MsgDone {
		d.r.mu.Lock()
		d.r.doneSent[to] = true
		d.r.mu.Unlock()
	}
	return err
}
