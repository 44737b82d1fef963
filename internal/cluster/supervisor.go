package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"edgecache/internal/chaos"
	"edgecache/internal/model"
)

// Config configures a Supervisor run.
type Config struct {
	// Spec is the cluster description (validated by NewSupervisor).
	Spec model.ClusterSpec
	// Instances holds one built instance per spec cell, in cell order;
	// instance i's SBS count must match cell i's.
	Instances []*model.Instance
	// Command is the agent launch prefix; the agent flags ("-role", ...)
	// are appended. Typically the supervisor's own binary — one executable
	// is both supervisor and supervisee.
	Command []string
	// Env entries are appended to the inherited environment of every agent.
	Env []string
	// RunDir is the run's working directory: the cluster spec plus one
	// subdirectory per cell holding the instance file, checkpoint store,
	// result file and per-process stderr logs.
	RunDir string
	// Proc is the process-fault plan, validated against Spec.
	Proc chaos.ProcSchedule
	// OnEvent, when non-nil, observes supervision events. It is called
	// from the supervisor's event loop; keep it fast.
	OnEvent func(Event)
	// Log, when non-nil, receives the supervisor's human-readable log.
	Log io.Writer
}

// EventKind enumerates supervision events.
type EventKind int

// Supervision events.
const (
	// EventSpawned: a process (re)started; Generation counts incarnations
	// from 0.
	EventSpawned EventKind = iota + 1
	// EventListening: the process reported its bound address.
	EventListening
	// EventExited: a process died unexpectedly (crash, kill, non-zero
	// exit); the restart/escalation decision follows.
	EventExited
	// EventHeartbeatMiss: the liveness deadline expired; the supervisor is
	// about to SIGKILL the process and treat it as crashed.
	EventHeartbeatMiss
	// EventRestartScheduled: a restart was granted from the budget and
	// will fire after the backoff delay.
	EventRestartScheduled
	// EventEscalated: the restart budget is exhausted. An SBS is left
	// permanently down (the BS's quarantine absorbs it); a BS escalation
	// is followed by EventCellFailed.
	EventEscalated
	// EventProcFault: a scheduled process fault fired.
	EventProcFault
	// EventCellDone: the cell's BS finished cleanly and its result was
	// collected.
	EventCellDone
	// EventCellFailed: the cell is abandoned (BS budget exhausted, or an
	// unreadable result); its processes are torn down.
	EventCellFailed
)

// Event is one supervision observation.
type Event struct {
	Kind EventKind
	// Cell is the cell name; Proc the process name within it ("bs",
	// "sbs-3"), empty for cell-level events.
	Cell, Proc string
	// Generation is the process incarnation (0 = first launch).
	Generation int
	// Sweep is the cell's protocol time when the event happened (-1
	// before the first observed sweep).
	Sweep int
	// Fault is set for EventProcFault.
	Fault chaos.ProcEvent
	// Err carries the exit or escalation error, when there is one.
	Err error
}

// CellResult is one cell's outcome.
type CellResult struct {
	Name string
	// Completed reports a collected BS result; Failure names the reason
	// when the cell was abandoned instead.
	Completed bool
	Failure   string
	// Result is the BS agent's result.json (nil for failed cells).
	Result *AgentResult
	// BSRestarts and SBSRestarts count consumed restarts.
	BSRestarts  int
	SBSRestarts int
	// Escalated lists processes left permanently down.
	Escalated []string
}

// FiredProc records one fired process fault and the cell sweep that
// triggered it.
type FiredProc struct {
	Event   chaos.ProcEvent
	AtSweep int
}

// Result aggregates a supervised run.
type Result struct {
	Cells []CellResult
	// Fired lists the process faults that triggered; Unfired the scheduled
	// ones whose sweep was never reached.
	Fired   []FiredProc
	Unfired []chaos.ProcEvent
}

// procState is a process's supervision state.
type procState int

const (
	procIdle    procState = iota // never spawned
	procBackoff                  // spawn scheduled (initial delay or restart backoff)
	procRunning
	procDone // exited cleanly after DONE
	procDead // torn down or escalated
)

// proc is the supervisor's record of one supervised process. All fields
// are owned by the event loop; goroutines communicate via supEvent only.
type proc struct {
	cell  *cellState
	role  Role
	index int    // SBS index; -1 for the BS
	name  string // endpoint name, log file stem

	// addr is pinned at the first ADDR report; restarts re-bind it so the
	// peers' address books stay valid across incarnations.
	addr string
	// gen counts incarnations (-1 before the first spawn); restarts counts
	// consumed budget. spawnDelay is the chaos launch attribute.
	gen        int
	restarts   int
	spawnDelay time.Duration

	state      procState
	expectExit bool // exit is part of a teardown, not a failure
	doneSeen   bool

	cmd   *exec.Cmd
	stdin io.WriteCloser

	// Liveness bookkeeping. hbEpoch counts timer arms for this proc; a miss
	// event armed at an older epoch is stale (a heartbeat was processed
	// after it fired) and is discarded. hbSuspect implements two-strike
	// detection: the first valid miss only re-arms the timer, so a
	// supervisor that was itself starved of CPU for a deadline (many
	// race-instrumented processes on a loaded box) gets a grace window to
	// drain the queued heartbeats before declaring a healthy process dead.
	hbTimer   *time.Timer
	hbEpoch   int
	hbSuspect bool
}

func (p *proc) kill() {
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}

func (p *proc) signal(sig syscall.Signal) {
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Signal(sig)
	}
}

func (p *proc) stopHB() {
	if p.hbTimer != nil {
		p.hbTimer.Stop()
		p.hbTimer = nil
	}
}

// cellState is the supervisor's record of one cell.
type cellState struct {
	index int
	spec  model.ClusterCell
	dir   string

	bs      *proc
	sbss    []*proc
	members []*proc // bs followed by the sbss

	// initialPeered flips once the initial peer lists went out (all
	// members without a spawn delay have reported); later reports are
	// handled incrementally.
	initialPeered bool
	// sweep is the cell's protocol time as reported by its BS (-1 before
	// the first report); pending holds the unfired protocol-time faults,
	// sorted by trigger sweep.
	sweep   int
	pending []chaos.ProcEvent

	complete, failed bool
	failure          string
	result           *AgentResult
	escalated        []string
}

// evKind tags internal event-loop messages.
type evKind int

const (
	evAddr evKind = iota + 1
	evHB
	evDone
	evExit
	evHBMiss
	evRespawn
	evCont
)

// supEvent is one event-loop message. gen guards against stale timers and
// readers outliving the incarnation they were armed for; epoch (miss
// events only) guards against misses overtaken by a processed heartbeat.
type supEvent struct {
	kind         evKind
	p            *proc
	gen          int
	epoch        int
	addr         string
	sweep, phase int
	err          error
}

// Supervisor launches and supervises a cluster of agent processes. One
// goroutine (Run's event loop) owns all state; per-process reader and
// waiter goroutines, heartbeat deadlines, backoff timers and SIGCONT
// schedules all funnel through the events channel.
type Supervisor struct {
	cfg    Config
	events chan supEvent
	stopc  chan struct{}

	cells     []*cellState
	fired     []FiredProc
	remaining int // cells neither complete nor failed
	live      int // processes with an outstanding Wait
}

// NewSupervisor validates the configuration and lays out the supervision
// state (no processes are started until Run).
func NewSupervisor(cfg Config) (*Supervisor, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Command) == 0 || cfg.Command[0] == "" {
		return nil, errors.New("cluster: Config.Command must name the agent binary")
	}
	if cfg.RunDir == "" {
		return nil, errors.New("cluster: Config.RunDir is required")
	}
	if len(cfg.Instances) != len(cfg.Spec.Cells) {
		return nil, fmt.Errorf("cluster: %d instances for %d cells", len(cfg.Instances), len(cfg.Spec.Cells))
	}
	for i, c := range cfg.Spec.Cells {
		inst := cfg.Instances[i]
		if inst == nil {
			return nil, fmt.Errorf("cluster: cell %q has no instance", c.Name)
		}
		if err := inst.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: cell %q: %w", c.Name, err)
		}
		if inst.N != c.SBSs {
			return nil, fmt.Errorf("cluster: cell %q instance has %d SBSs, spec says %d", c.Name, inst.N, c.SBSs)
		}
	}
	if err := cfg.Proc.Validate(func(name string) int {
		i := cfg.Spec.Cell(name)
		if i < 0 {
			return -1
		}
		return cfg.Spec.Cells[i].SBSs
	}); err != nil {
		return nil, err
	}

	s := &Supervisor{cfg: cfg, events: make(chan supEvent, 1024), stopc: make(chan struct{})}
	for i, cs := range cfg.Spec.Cells {
		cell := &cellState{index: i, spec: cs, dir: filepath.Join(cfg.RunDir, cs.Name), sweep: -1}
		cell.bs = &proc{cell: cell, role: RoleBS, index: -1, name: bsName, gen: -1}
		cell.members = append(cell.members, cell.bs)
		for j := 0; j < cs.SBSs; j++ {
			sp := &proc{cell: cell, role: RoleSBS, index: j, name: sbsEndpointName(j), gen: -1}
			cell.sbss = append(cell.sbss, sp)
			cell.members = append(cell.members, sp)
		}
		s.cells = append(s.cells, cell)
	}
	s.remaining = len(s.cells)
	for _, fe := range cfg.Proc.Events {
		cell := s.cells[cfg.Spec.Cell(fe.Cell)]
		if fe.Op == chaos.ProcSpawnDelay {
			target := cell.bs
			if fe.SBS >= 0 {
				target = cell.sbss[fe.SBS]
			}
			target.spawnDelay = fe.Delay
		} else {
			cell.pending = append(cell.pending, fe)
		}
	}
	for _, c := range s.cells {
		pending := c.pending
		sort.SliceStable(pending, func(a, b int) bool { return pending[a].Sweep < pending[b].Sweep })
	}
	return s, nil
}

// post delivers an event to the loop unless the supervisor already shut
// down (so late timers never leak a blocked goroutine).
func (s *Supervisor) post(ev supEvent) {
	select {
	case s.events <- ev:
	case <-s.stopc:
	}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "sup: "+format+"\n", args...)
	}
}

func (s *Supervisor) event(ev Event) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}

// Run lays out the run directory, launches every cell and supervises until
// all cells completed or failed (or ctx is cancelled, which abandons the
// incomplete cells). The Result is returned even alongside an error; the
// error summarizes failed cells.
func (s *Supervisor) Run(ctx context.Context) (*Result, error) {
	if err := s.layout(); err != nil {
		return nil, err
	}
	defer close(s.stopc)
	for _, c := range s.cells {
		for _, p := range c.members {
			if p.spawnDelay > 0 {
				p.state = procBackoff
				pp := p
				s.logf("%s/%s: spawn delayed by %v", c.spec.Name, p.name, p.spawnDelay)
				time.AfterFunc(p.spawnDelay, func() { s.post(supEvent{kind: evRespawn, p: pp}) })
			} else {
				s.spawn(p)
			}
		}
	}
	var ctxErr error
	for s.remaining > 0 {
		select {
		case ev := <-s.events:
			s.handle(ev)
		case <-ctx.Done():
			ctxErr = ctx.Err()
			for _, c := range s.cells {
				if !c.complete && !c.failed {
					s.failCell(c, "supervisor cancelled: "+ctxErr.Error())
				}
			}
		}
	}
	s.drain()
	res := s.result()
	if ctxErr != nil {
		return res, ctxErr
	}
	var failed []string
	for _, c := range s.cells {
		if c.failed {
			failed = append(failed, c.spec.Name+": "+c.failure)
		}
	}
	if len(failed) > 0 {
		return res, fmt.Errorf("cluster: %d of %d cells failed: %s", len(failed), len(s.cells), strings.Join(failed, "; "))
	}
	return res, nil
}

// layout materializes the run directory: the cluster spec itself plus, per
// cell, the instance file and an empty checkpoint directory.
func (s *Supervisor) layout() error {
	if err := os.MkdirAll(s.cfg.RunDir, 0o755); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	f, err := os.Create(filepath.Join(s.cfg.RunDir, "cluster.json"))
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := s.cfg.Spec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	for i, c := range s.cells {
		if err := os.MkdirAll(filepath.Join(c.dir, "ckpt"), 0o755); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		f, err := os.Create(filepath.Join(c.dir, "instance.json"))
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if err := s.cfg.Instances[i].WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

// agentArgs renders the command line for p's next incarnation.
func (s *Supervisor) agentArgs(p *proc) []string {
	spec := s.cfg.Spec
	cell := p.cell
	listen := p.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	seed := cell.spec.Seed
	if seed == 0 {
		seed = 1
	}
	args := []string{
		"-role", p.role.String(),
		"-cell", cell.spec.Name,
		"-instance", filepath.Join(cell.dir, "instance.json"),
		"-listen", listen,
		"-generation", strconv.Itoa(p.gen),
		"-hb-interval", formatDuration(spec.HeartbeatInterval()),
		"-seed", strconv.FormatInt(seed, 10),
	}
	if p.role == RoleBS {
		args = append(args,
			"-result", filepath.Join(cell.dir, "result.json"),
			"-ckpt-dir", filepath.Join(cell.dir, "ckpt"),
			"-phase-timeout", formatDuration(spec.PhaseTimeout()),
		)
		if spec.Gamma > 0 {
			args = append(args, "-gamma", formatFloat(spec.Gamma))
		}
		if spec.MaxSweeps > 0 {
			args = append(args, "-max-sweeps", strconv.Itoa(spec.MaxSweeps))
		}
		if p.gen > 0 {
			args = append(args, "-resume")
		}
	} else {
		args = append(args, "-index", strconv.Itoa(p.index))
		if cell.spec.Epsilon > 0 {
			args = append(args, "-epsilon", formatFloat(cell.spec.Epsilon), "-delta", formatFloat(cell.spec.Delta))
		}
	}
	return args
}

// spawn launches p's next incarnation: stderr goes to the per-process log
// file, stdout is read by a line-protocol goroutine, a waiter goroutine
// reports the exit, and the heartbeat deadline is armed.
func (s *Supervisor) spawn(p *proc) {
	p.gen++
	p.state = procRunning
	p.doneSeen = false
	p.expectExit = false

	argv := append(append([]string(nil), s.cfg.Command[1:]...), s.agentArgs(p)...)
	cmd := exec.Command(s.cfg.Command[0], argv...)
	cmd.Env = append(os.Environ(), s.cfg.Env...)
	logf, err := os.OpenFile(filepath.Join(p.cell.dir, p.name+".log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.handleFailure(p, err)
		return
	}
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		s.handleFailure(p, err)
		return
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logf.Close()
		s.handleFailure(p, err)
		return
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		s.handleFailure(p, err)
		return
	}
	p.cmd, p.stdin = cmd, stdin
	s.live++
	s.logf("%s/%s: spawned gen %d (pid %d)", p.cell.spec.Name, p.name, p.gen, cmd.Process.Pid)
	s.event(Event{Kind: EventSpawned, Cell: p.cell.spec.Name, Proc: p.name, Generation: p.gen, Sweep: p.cell.sweep})

	gen := p.gen
	p.hbSuspect = false
	s.armHB(p)
	// One goroutine reads stdout to EOF and only then calls Wait: calling
	// Wait concurrently with pipe reads is incorrect (Wait closes the pipe
	// on process exit, which can drop a final DONE line), and sequencing
	// also guarantees evDone is enqueued before evExit.
	go func() {
		s.readLines(stdout, p, gen)
		werr := cmd.Wait()
		logf.Close()
		s.post(supEvent{kind: evExit, p: p, gen: gen, err: werr})
	}()
}

// armHB (re)arms p's liveness timer at a fresh epoch. A fresh timer is
// created rather than Reset so the fired closure carries the epoch it was
// armed at: a miss event sitting in the queue behind newer heartbeats is
// recognized as stale and discarded when handled.
func (s *Supervisor) armHB(p *proc) {
	p.stopHB()
	p.hbEpoch++
	gen, epoch := p.gen, p.hbEpoch
	p.hbTimer = time.AfterFunc(s.cfg.Spec.HeartbeatDeadline(), func() {
		s.post(supEvent{kind: evHBMiss, p: p, gen: gen, epoch: epoch})
	})
}

// beatHB records a liveness proof: the suspect flag clears and the timer
// re-arms at a new epoch, invalidating any in-flight miss event.
func (s *Supervisor) beatHB(p *proc) {
	p.hbSuspect = false
	s.armHB(p)
}

// readLines forwards p's stdout line protocol into the event loop until
// EOF. A line longer than the reader's buffer is not a protocol line: it
// is skipped whole and reading goes on, so stray output from a live child
// cannot hide its later heartbeats.
func (s *Supervisor) readLines(r io.Reader, p *proc, gen int) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
		} else {
			s.postLine(string(line), p, gen)
		}
		if err != nil {
			return
		}
	}
}

// postLine posts the event of one stdout protocol line; other lines are
// ignored.
func (s *Supervisor) postLine(line string, p *proc, gen int) {
	kind, sweep, phase, addr, ok := parseLine(line)
	if !ok {
		return
	}
	switch kind {
	case lineAddr:
		s.post(supEvent{kind: evAddr, p: p, gen: gen, addr: addr})
	case lineHB:
		s.post(supEvent{kind: evHB, p: p, gen: gen, sweep: sweep, phase: phase})
	case lineDone:
		s.post(supEvent{kind: evDone, p: p, gen: gen})
	}
}

// handle dispatches one event-loop message.
func (s *Supervisor) handle(ev supEvent) {
	p := ev.p
	switch ev.kind {
	case evAddr:
		if ev.gen != p.gen || p.state != procRunning {
			return
		}
		s.beatHB(p)
		if p.addr == "" {
			p.addr = ev.addr
		}
		s.logf("%s/%s: listening on %s (gen %d)", p.cell.spec.Name, p.name, p.addr, p.gen)
		s.event(Event{Kind: EventListening, Cell: p.cell.spec.Name, Proc: p.name, Generation: p.gen, Sweep: p.cell.sweep})
		s.distributePeers(p)

	case evHB:
		if ev.gen != p.gen || p.state != procRunning {
			return
		}
		s.beatHB(p)
		if p.role == RoleBS && ev.sweep > p.cell.sweep {
			p.cell.sweep = ev.sweep
			s.fireCellFaults(p.cell)
		}

	case evDone:
		if ev.gen != p.gen {
			return
		}
		p.doneSeen = true

	case evHBMiss:
		if ev.gen != p.gen || ev.epoch != p.hbEpoch || p.state != procRunning {
			return
		}
		if !p.hbSuspect {
			// First strike: grant one more deadline before declaring death,
			// so a scheduling hiccup on the supervisor's side cannot kill a
			// healthy agent. A truly dead process stays silent and is killed
			// on the second strike.
			p.hbSuspect = true
			s.armHB(p)
			return
		}
		s.logf("%s/%s: no heartbeat for 2x deadline (%v) at gen %d; killing",
			p.cell.spec.Name, p.name, s.cfg.Spec.HeartbeatDeadline(), p.gen)
		s.event(Event{Kind: EventHeartbeatMiss, Cell: p.cell.spec.Name, Proc: p.name, Generation: p.gen, Sweep: p.cell.sweep})
		p.kill() // the exit event drives the restart decision

	case evRespawn:
		if p.state != procBackoff || p.cell.complete || p.cell.failed {
			return
		}
		s.spawn(p)

	case evCont:
		if ev.gen == p.gen && p.state == procRunning {
			p.signal(syscall.SIGCONT)
		}

	case evExit:
		s.live--
		p.stopHB()
		if p.stdin != nil {
			p.stdin.Close()
			p.stdin = nil
		}
		cell := p.cell
		if cell.complete || cell.failed {
			p.state = procDead
			return
		}
		if ev.err == nil && p.doneSeen {
			if p.role == RoleBS {
				s.completeCell(cell)
			} else {
				p.state = procDone
			}
			return
		}
		if p.expectExit {
			p.state = procDead
			return
		}
		s.logf("%s/%s: gen %d exited unexpectedly: %v", cell.spec.Name, p.name, p.gen, ev.err)
		s.event(Event{Kind: EventExited, Cell: cell.spec.Name, Proc: p.name, Generation: p.gen, Sweep: cell.sweep, Err: ev.err})
		s.handleFailure(p, ev.err)
	}
}

// distributePeers reacts to an address report. Until every member without
// a spawn delay has reported, nothing is sent (agents block on their first
// peer list, so the whole cell starts together — the fault-free path sees
// no spurious misses). Afterwards, reports are incremental: the newcomer
// gets its current list and, for an SBS, the BS gets a refresh carrying
// the newcomer's address.
func (s *Supervisor) distributePeers(p *proc) {
	cell := p.cell
	if !cell.initialPeered {
		for _, m := range cell.members {
			if m.spawnDelay == 0 && m.addr == "" {
				return
			}
		}
		cell.initialPeered = true
		for _, m := range cell.members {
			if m.addr != "" && m.state == procRunning {
				s.sendPeers(m)
			}
		}
		return
	}
	s.sendPeers(p)
	if p.role == RoleSBS && cell.bs.state == procRunning {
		s.sendPeers(cell.bs)
	}
}

// sendPeers writes m's current peer list to its stdin. Write failures are
// logged, not handled — a dying process is the exit event's business.
func (s *Supervisor) sendPeers(m *proc) {
	if m.stdin == nil {
		return
	}
	pl := &PeerList{}
	if m.role == RoleBS {
		for _, sp := range m.cell.sbss {
			if sp.addr != "" {
				pl.Peers = append(pl.Peers, PeerAddr{Name: sp.name, Addr: sp.addr})
			}
		}
	} else if bs := m.cell.bs; bs.addr != "" {
		pl.Peers = append(pl.Peers, PeerAddr{Name: bsName, Addr: bs.addr})
	}
	data, err := encodePeerList(pl)
	if err != nil {
		s.logf("%s/%s: %v", m.cell.spec.Name, m.name, err)
		return
	}
	if _, err := m.stdin.Write(data); err != nil {
		s.logf("%s/%s: peer list write: %v", m.cell.spec.Name, m.name, err)
	}
}

// fireCellFaults fires every pending fault whose trigger sweep the cell
// has reached.
func (s *Supervisor) fireCellFaults(cell *cellState) {
	for len(cell.pending) > 0 && cell.pending[0].Sweep <= cell.sweep {
		fe := cell.pending[0]
		cell.pending = cell.pending[1:]
		s.fired = append(s.fired, FiredProc{Event: fe, AtSweep: cell.sweep})
		target := cell.bs
		if fe.SBS >= 0 {
			target = cell.sbss[fe.SBS]
		}
		s.logf("%s: firing %v (cell at sweep %d)", cell.spec.Name, fe, cell.sweep)
		s.event(Event{Kind: EventProcFault, Cell: cell.spec.Name, Proc: target.name, Generation: target.gen, Sweep: cell.sweep, Fault: fe})
		if target.state != procRunning {
			continue // nothing to fault; still recorded as fired
		}
		switch fe.Op {
		case chaos.ProcKill:
			target.kill()
		case chaos.ProcStop:
			target.signal(syscall.SIGSTOP)
			tp, gen := target, target.gen
			time.AfterFunc(fe.Delay, func() {
				s.post(supEvent{kind: evCont, p: tp, gen: gen})
			})
		}
	}
}

// handleFailure decides restart vs escalation after an unexpected death
// (or a failed spawn attempt).
func (s *Supervisor) handleFailure(p *proc, cause error) {
	budget := s.cfg.Spec.Restarts()
	if p.restarts >= budget {
		s.escalate(p, cause)
		return
	}
	p.restarts++
	delay := s.cfg.Spec.Backoff(p.restarts) + p.spawnDelay
	p.state = procBackoff
	s.logf("%s/%s: restart %d/%d in %v", p.cell.spec.Name, p.name, p.restarts, budget, delay)
	s.event(Event{Kind: EventRestartScheduled, Cell: p.cell.spec.Name, Proc: p.name, Generation: p.gen, Sweep: p.cell.sweep, Err: cause})
	time.AfterFunc(delay, func() { s.post(supEvent{kind: evRespawn, p: p}) })
}

// escalate handles an exhausted restart budget: an SBS is left permanently
// down (the BS's quarantine machinery absorbs the loss and the cell
// degrades gracefully); a dead BS means the cell cannot make progress, so
// the cell is failed and torn down while the other cells continue.
func (s *Supervisor) escalate(p *proc, cause error) {
	p.state = procDead
	cell := p.cell
	s.event(Event{Kind: EventEscalated, Cell: cell.spec.Name, Proc: p.name, Generation: p.gen, Sweep: cell.sweep, Err: cause})
	if p.role == RoleSBS {
		cell.escalated = append(cell.escalated, p.name)
		s.logf("%s/%s: restart budget exhausted; leaving it down (BS quarantine degrades the cell)",
			cell.spec.Name, p.name)
		return
	}
	s.failCell(cell, fmt.Sprintf("BS restart budget exhausted: %v", cause))
}

// completeCell collects a cleanly finished cell.
func (s *Supervisor) completeCell(cell *cellState) {
	res, err := ReadResultFile(filepath.Join(cell.dir, "result.json"))
	if err != nil {
		cell.bs.state = procDead
		s.failCell(cell, fmt.Sprintf("BS finished but its result is unreadable: %v", err))
		return
	}
	cell.bs.state = procDone
	cell.complete = true
	cell.result = res
	s.remaining--
	s.logf("%s: complete (converged=%v sweeps=%d cost=%v)", cell.spec.Name, res.Converged, res.Sweeps, res.CostTotal)
	s.event(Event{Kind: EventCellDone, Cell: cell.spec.Name, Sweep: cell.sweep})
	s.teardownCell(cell)
}

// failCell abandons a cell and tears its processes down.
func (s *Supervisor) failCell(cell *cellState, reason string) {
	cell.failed = true
	cell.failure = reason
	s.remaining--
	s.logf("%s: FAILED: %s", cell.spec.Name, reason)
	s.event(Event{Kind: EventCellFailed, Cell: cell.spec.Name, Sweep: cell.sweep, Err: errors.New(reason)})
	s.teardownCell(cell)
}

// teardownCell kills the cell's remaining processes (their exits are
// expected) and cancels pending backoff spawns.
func (s *Supervisor) teardownCell(cell *cellState) {
	for _, p := range cell.members {
		switch p.state {
		case procRunning:
			p.expectExit = true
			p.stopHB()
			// A SIGSTOPped process must be killable too; SIGKILL works on
			// stopped processes, so no SIGCONT is needed first.
			p.kill()
		case procBackoff, procIdle:
			p.state = procDead
		}
	}
}

// drain waits (bounded) for the outstanding process exits after the last
// cell resolved, so no waiter goroutine outlives Run.
func (s *Supervisor) drain() {
	if s.live == 0 {
		return
	}
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for s.live > 0 {
		select {
		case ev := <-s.events:
			if ev.kind == evExit {
				s.live--
				ev.p.stopHB()
				if ev.p.stdin != nil {
					ev.p.stdin.Close()
					ev.p.stdin = nil
				}
			}
		case <-deadline.C:
			s.logf("drain: %d processes still outstanding after 10s", s.live)
			return
		}
	}
}

// result assembles the run summary.
func (s *Supervisor) result() *Result {
	out := &Result{Cells: make([]CellResult, len(s.cells)), Fired: s.fired}
	for i, c := range s.cells {
		cr := CellResult{
			Name:       c.spec.Name,
			Completed:  c.complete,
			Failure:    c.failure,
			Result:     c.result,
			BSRestarts: c.bs.restarts,
			Escalated:  append([]string(nil), c.escalated...),
		}
		for _, sp := range c.sbss {
			cr.SBSRestarts += sp.restarts
		}
		out.Cells[i] = cr
		out.Unfired = append(out.Unfired, c.pending...)
	}
	return out
}
