package cluster

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/sim"
	"edgecache/internal/transport"
)

// ckptRetain is how many snapshots a BS agent keeps in its -ckpt-dir.
const ckptRetain = 5

// agentConfig is the parsed agent command line.
type agentConfig struct {
	role       Role
	cell       string
	index      int
	listen     string
	inst       *model.Instance
	generation int
	hbInterval time.Duration
	seed       int64

	// SBS privacy knobs.
	epsilon, delta float64

	// BS-only.
	result       string
	ckptDir      string
	resume       bool
	gamma        float64
	maxSweeps    int
	phaseTimeout time.Duration
}

// AgentMain is the supervisee entrypoint behind `edgesim -role bs|sbs` (and
// behind the test binaries' re-exec hook). It parses the agent flags, loads
// the instance, binds the endpoint and runs one BS or SBS agent to
// completion, speaking the stdout line protocol and reading peer lists from
// stdin. The error return is for the launcher to report and exit non-zero
// on; the supervisor only ever sees the exit status and the log file.
func AgentMain(args []string) error {
	fs := flag.NewFlagSet("edgesim-agent", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		cfg      agentConfig
		role     = fs.String("role", "", "agent role: bs or sbs")
		instance = fs.String("instance", "", "instance JSON path")
	)
	fs.StringVar(&cfg.cell, "cell", "", "cell name (logs only)")
	fs.IntVar(&cfg.index, "index", -1, "SBS index within the cell (sbs role)")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "listen address (restarts pin the original port)")
	fs.IntVar(&cfg.generation, "generation", 0, "process incarnation number (0 = first launch)")
	fs.DurationVar(&cfg.hbInterval, "hb-interval", 25*time.Millisecond, "heartbeat cadence")
	fs.Int64Var(&cfg.seed, "seed", 1, "cell seed (retry jitter; SBS noise)")
	fs.Float64Var(&cfg.epsilon, "epsilon", 0, "LPPM epsilon (sbs role; 0 disables)")
	fs.Float64Var(&cfg.delta, "delta", 0, "LPPM delta (sbs role)")
	fs.StringVar(&cfg.result, "result", "", "result JSON path (bs role)")
	fs.StringVar(&cfg.ckptDir, "ckpt-dir", "", "checkpoint directory (bs role)")
	fs.BoolVar(&cfg.resume, "resume", false, "resume from the newest checkpoint if any (bs role)")
	fs.Float64Var(&cfg.gamma, "gamma", 0, "convergence threshold (bs role; 0 = default)")
	fs.IntVar(&cfg.maxSweeps, "max-sweeps", 0, "sweep budget (bs role; 0 = default)")
	fs.DurationVar(&cfg.phaseTimeout, "phase-timeout", 2*time.Second, "phase window (bs role)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, err := ParseRole(*role)
	if err != nil {
		return err
	}
	cfg.role = r
	if *instance == "" {
		return errors.New("cluster: agent requires -instance")
	}
	f, err := os.Open(*instance)
	if err != nil {
		return err
	}
	cfg.inst, err = model.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	switch cfg.role {
	case RoleBS:
		if cfg.result == "" || cfg.ckptDir == "" {
			return errors.New("cluster: bs agent requires -result and -ckpt-dir")
		}
		return runBS(cfg, os.Stdout, os.Stdin)
	default:
		if cfg.index < 0 || cfg.index >= cfg.inst.N {
			return fmt.Errorf("cluster: sbs agent index %d out of range (instance has %d SBSs)", cfg.index, cfg.inst.N)
		}
		return runSBS(cfg, os.Stdout, os.Stdin)
	}
}

// reporter serializes the agent's stdout line protocol. Progress (sweep,
// phase) is tracked so the periodic beat always carries the freshest
// protocol time, and a sweep transition emits an immediate beat — that
// immediacy is what lets the supervisor fire protocol-time faults at the
// sweep they name instead of one heartbeat late.
type reporter struct {
	mu           sync.Mutex
	w            io.Writer
	sweep, phase int
}

func newReporter(w io.Writer) *reporter { return &reporter{w: w, sweep: -1, phase: -1} }

func (r *reporter) addr(a string) {
	r.mu.Lock()
	fmt.Fprintf(r.w, "%s %s\n", lineAddr, a)
	r.mu.Unlock()
}

// progress records a protocol-time observation, beating immediately when a
// new sweep starts.
func (r *reporter) progress(sweep, phase int) {
	r.mu.Lock()
	switch {
	case sweep > r.sweep:
		r.sweep, r.phase = sweep, phase
		fmt.Fprintf(r.w, "%s %d %d\n", lineHB, r.sweep, r.phase)
	case sweep == r.sweep && phase > r.phase:
		r.phase = phase
	}
	r.mu.Unlock()
}

// beat emits the periodic heartbeat with the current protocol time.
func (r *reporter) beat() {
	r.mu.Lock()
	fmt.Fprintf(r.w, "%s %d %d\n", lineHB, r.sweep, r.phase)
	r.mu.Unlock()
}

func (r *reporter) done() {
	r.mu.Lock()
	fmt.Fprintf(r.w, "%s\n", lineDone)
	r.mu.Unlock()
}

// progressEndpoint taps the protocol stream for sweep transitions: the BS
// observes its own MsgPhaseStart sends, an SBS the receipts. Everything
// else passes through untouched.
type progressEndpoint struct {
	inner transport.Endpoint
	tcp   *transport.TCPEndpoint
	rep   *reporter
}

var _ transport.Endpoint = (*progressEndpoint)(nil)

func (p *progressEndpoint) Name() string { return p.inner.Name() }
func (p *progressEndpoint) Close() error { return p.inner.Close() }

func (p *progressEndpoint) Send(ctx context.Context, to string, m transport.Message) error {
	if m.Type == transport.MsgPhaseStart {
		p.rep.progress(m.Sweep, m.Phase)
	}
	return p.inner.Send(ctx, to, m)
}

func (p *progressEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	m, err := p.inner.Recv(ctx)
	if err == nil && m.Type == transport.MsgPhaseStart {
		p.rep.progress(m.Sweep, m.Phase)
	}
	return m, err
}

// listenWithRetry binds the agent's listener. A restarted agent re-binds
// its previous incarnation's exact port (so peers' address books stay
// valid); the old socket can linger briefly after a SIGKILL, hence the
// bounded retry.
func listenWithRetry(name, addr string) (*transport.TCPEndpoint, error) {
	var lastErr error
	for attempt := 0; attempt < 80; attempt++ {
		if attempt > 0 {
			time.Sleep(25 * time.Millisecond)
		}
		ep, err := transport.NewTCPEndpoint(name, addr)
		if err == nil {
			return ep, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// openEndpoint builds the agent's endpoint stack — TCP listener, reliable
// wrapper, progress tap — and reports the bound address.
func openEndpoint(name string, cfg agentConfig, rep *reporter) (*progressEndpoint, error) {
	tcp, err := listenWithRetry(name, cfg.listen)
	if err != nil {
		return nil, err
	}
	rep.addr(tcp.Addr())
	rel, err := transport.NewReliableEndpoint(tcp, transport.RetryPolicy{Seed: cfg.seed + int64(cfg.generation)})
	if err != nil {
		tcp.Close()
		return nil, err
	}
	return &progressEndpoint{inner: rel, tcp: tcp, rep: rep}, nil
}

// servePeers blocks for the initial peer list (the supervisor's start
// signal), then keeps applying later lists in the background — that is how
// a restarted or late-spawned peer's address reaches a live agent.
func servePeers(tcp *transport.TCPEndpoint, in io.Reader) error {
	br := bufio.NewReader(in)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("cluster: read initial peer list: %w", err)
	}
	pl, err := readPeerList(line)
	if err != nil {
		return err
	}
	for _, p := range pl.Peers {
		tcp.AddPeer(p.Name, p.Addr)
	}
	// The reader lives for the whole agent process: a Read blocked on stdin
	// has no portable interrupt, so the only join is process exit (the
	// supervisor closing the pipe unblocks ReadBytes with an error).
	//edgecache:lint-ignore goleak stdin reader runs for the agent's lifetime; blocked Read has no portable interrupt and process exit reaps it
	go func() {
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return // stdin closed: the supervisor is gone
			}
			if pl, err := readPeerList(line); err == nil {
				for _, p := range pl.Peers {
					tcp.AddPeer(p.Name, p.Addr)
				}
			}
		}
	}()
	return nil
}

// startHeartbeat runs the periodic beat until the returned stop function is
// called.
func startHeartbeat(rep *reporter, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rep.beat()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// runBS drives the cell's coordinator: checkpoint every sweep boundary,
// resume from the newest snapshot when relaunched after a crash (falling
// back to a cold run if death preceded the first boundary), and leave the
// cell outcome in result.json before announcing DONE.
func runBS(cfg agentConfig, out io.Writer, in io.Reader) error {
	rep := newReporter(out)
	ep, err := openEndpoint(bsName, cfg, rep)
	if err != nil {
		return err
	}
	defer ep.Close()
	// Heartbeat from the moment the listener is up: liveness means "the
	// process is alive", not "the protocol is progressing". An agent idling
	// on the bootstrap peer list (its cell's siblings may spawn slowly)
	// must not look dead to the supervisor.
	stop := startHeartbeat(rep, cfg.hbInterval)
	defer stop()
	if err := servePeers(ep.tcp, in); err != nil {
		return err
	}
	store, err := model.NewCheckpointStore(cfg.ckptDir, ckptRetain)
	if err != nil {
		return err
	}
	sbsNames := make([]string, cfg.inst.N)
	for i := range sbsNames {
		sbsNames[i] = sbsEndpointName(i)
	}
	bs, err := sim.NewBSAgent(cfg.inst, sim.BSConfig{
		Gamma:        cfg.gamma,
		MaxSweeps:    cfg.maxSweeps,
		PhaseTimeout: cfg.phaseTimeout,
		Checkpoint:   &core.CheckpointConfig{Sink: store},
	}, ep, sbsNames)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var res *core.RunResult
	if cfg.resume {
		// DeepLatest rather than Latest: a supervised restart follows an
		// unclean death, so corrupt snapshots are quarantined on the way
		// to the newest intact one instead of silently skipped.
		ck, lerr := store.DeepLatest()
		switch {
		case errors.Is(lerr, model.ErrNoCheckpoint):
			// Died before the first sweep boundary: nothing to resume.
			res, err = bs.Run(ctx)
		case lerr != nil:
			return lerr
		default:
			res, err = bs.Resume(ctx, ck)
		}
	} else {
		res, err = bs.Run(ctx)
	}
	if err != nil {
		return err
	}
	faults := res.TotalFaults()
	if err := writeResultFile(cfg.result, &AgentResult{
		Converged:   res.Converged,
		Sweeps:      res.Sweeps,
		CostTotal:   res.Solution.Cost.Total,
		History:     res.History,
		Misses:      faults.Misses,
		Quarantines: faults.QuarantineSpans,
	}); err != nil {
		return err
	}
	stop()
	rep.done()
	return nil
}

// runSBS serves one sub-problem solver until the BS's MsgDone. A restarted
// SBS draws a fresh noise stream (generation-salted seed): LPPM noise is
// never replayed across incarnations.
func runSBS(cfg agentConfig, out io.Writer, in io.Reader) error {
	rep := newReporter(out)
	ep, err := openEndpoint(sbsEndpointName(cfg.index), cfg, rep)
	if err != nil {
		return err
	}
	defer ep.Close()
	stop := startHeartbeat(rep, cfg.hbInterval)
	defer stop()
	if err := servePeers(ep.tcp, in); err != nil {
		return err
	}
	var privacy *core.PrivacyConfig
	if cfg.epsilon > 0 {
		noise := core.NewNoiseSource(cfg.seed + int64(cfg.index)*1009 + int64(cfg.generation)*1000003)
		privacy = &core.PrivacyConfig{Epsilon: cfg.epsilon, Delta: cfg.delta, Noise: noise}
	}
	agent, err := sim.NewSBSAgent(cfg.inst, cfg.index, core.DefaultSubproblemConfig(), privacy, ep, bsName)
	if err != nil {
		return err
	}
	if err := agent.Run(context.Background()); err != nil {
		return err
	}
	stop()
	rep.done()
	return nil
}
