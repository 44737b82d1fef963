package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/sim"
	"edgecache/internal/transport"
)

// workload is one family of planning jobs. The end-to-end pass plans a set
// of instances of the workload's shape drawn from the seed (see
// instanceSeed), so its numbers describe the instance distribution rather
// than one draw.
type workload struct {
	name    string
	why     string
	n, u, f int
	density float64
	// instances is the size of the end-to-end pass's instance set: enough
	// that the set's mean run time varies by a few percent between seeds,
	// few enough that each instance runs several times within the
	// measuring time.
	instances int
	// procs is GOMAXPROCS while the workload runs, at most nproc.
	procs int
	// gate runs the untimed correctness checks on one instance and returns
	// the result every run of that instance must reproduce bit for bit.
	gate func(b *bench, inst *model.Instance, seed int64) (*core.RunResult, error)
	// setup builds one job; its wall time is setup_s.
	setup func(b *bench, inst *model.Instance, seed int64) (job, error)
	// trace runs one traced iteration and returns its per-layer metrics and
	// the checked result.
	trace func(b *bench, tr *tracer, run int, inst *model.Instance, seed int64) (map[string]float64, *core.RunResult, error)
}

// job is one planning run: run is timed as run_s, close is not.
type job interface {
	run() (*outcome, error)
	close()
}

// outcome is what one run produced, beyond the plan itself.
type outcome struct {
	res       *core.RunResult
	phaseMs   []float64 // tcp: announce Send to upload Recv, per phase
	wireBytes int64     // tcp: BS payload bytes sent
	faults    int       // tcp: fault events and fault counters
	recoverS  float64   // ckpt: DeepLatest plus NewCoordinator
}

// instanceSeed derives the seed of the i-th instance of a run stream; the
// first instance of -seed s is genInstance(s, ...).
func instanceSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

func (w *workload) instance(seed int64, i int) *model.Instance {
	return genInstance(instanceSeed(seed, i), w.n, w.u, w.f, w.density)
}

// LPPM parameters of the private workloads: the paper's ε=0.1 with noise on
// [0, 0.5·y].
const (
	lppmEpsilon = 0.1
	lppmDelta   = 0.5
)

// workloads are the benchmark's inputs. Each stresses different layers;
// the README maps layers to workloads and end-to-end metrics.
func workloads() []*workload {
	return []*workload{
		{
			name:      "sparse-gs-memo",
			why:       "sparse coupling: four Gauss-Seidel sweeps with the dirty-set memo on, which answers about a quarter of the phases; cheap solves expose tracker and driver cost",
			n:         100,
			u:         60,
			f:         60,
			density:   0.05,
			instances: 32,
			procs:     1,
			gate:      sparseGate,
			setup:     coordinatorSetup(sparseConfig),
			trace:     sparseTrace,
		},
		{
			name:      "dense-jacobi-par2",
			why:       "dense coupling: one parallel Jacobi round on 2 workers, bound by Solve and pool scaling; the memo never engages",
			n:         50,
			u:         100,
			f:         100,
			density:   0.6,
			instances: 6,
			procs:     2,
			gate:      denseGate,
			setup:     coordinatorSetup(denseConfig),
			trace:     denseTrace,
		},
		{
			name:      "tcp-gs-lppm",
			why:       "the only workload with wire traffic: BS and SBS agents over loopback TCP with LPPM, every U*F block gob-encoded twice",
			n:         10,
			u:         60,
			f:         60,
			density:   0.3,
			instances: 8,
			procs:     1,
			gate:      tcpGate,
			setup:     tcpSetup,
			trace:     tcpTrace,
		},
		{
			name:      "ckpt-gs-lppm",
			why:       "durability path: LPPM run checkpointed every sweep to disk with fsync, then recovered and resumed",
			n:         10,
			u:         40,
			f:         40,
			density:   0.2,
			instances: 8,
			procs:     1,
			gate:      ckptGate,
			setup:     ckptSetup,
			trace:     ckptTrace,
		},
	}
}

// ---- shared checks ----

// sameRun reports the first difference between two runs, bit for bit.
func sameRun(a, b *core.RunResult) error {
	if a.Sweeps != b.Sweeps || len(a.History) != len(b.History) || a.Converged != b.Converged {
		return fmt.Errorf("ran %d sweeps (converged %v), reference %d (converged %v)", a.Sweeps, a.Converged, b.Sweeps, b.Converged)
	}
	for i := range a.History {
		if math.Float64bits(a.History[i]) != math.Float64bits(b.History[i]) {
			return fmt.Errorf("cost after sweep %d is %v, reference %v", i, a.History[i], b.History[i])
		}
	}
	sa, sb := a.Solution, b.Solution
	if math.Float64bits(sa.Cost.Total) != math.Float64bits(sb.Cost.Total) {
		return fmt.Errorf("final cost %v, reference %v", sa.Cost.Total, sb.Cost.Total)
	}
	if d := sa.Caching.DiffCount(sb.Caching); d != 0 {
		return fmt.Errorf("caching differs in %d entries", d)
	}
	for i, v := range sa.Routing.T.Data {
		if math.Float64bits(v) != math.Float64bits(sb.Routing.T.Data[i]) {
			return fmt.Errorf("routing differs at flat index %d", i)
		}
	}
	return nil
}

// skippedFrac is the share of phases the dirty-set memo answered; 0 for
// engines without the accounting.
func skippedFrac(res *core.RunResult) float64 {
	w := res.TotalWork()
	if w.Solves+w.Skipped == 0 {
		return 0
	}
	return float64(w.Skipped) / float64(w.Solves+w.Skipped)
}

// feasible checks the plan against the full constraint system.
func feasible(inst *model.Instance, res *core.RunResult) error {
	if res.Solution == nil || res.Sweeps < 1 || len(res.History) != res.Sweeps {
		return errors.New("run returned no solution")
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) > 0 {
		return fmt.Errorf("infeasible plan: %s", model.FormatViolations(vs))
	}
	return nil
}

// runCoordinator builds a coordinator and runs it once.
func runCoordinator(inst *model.Instance, cfg core.Config) (*core.RunResult, time.Duration, error) {
	c, err := core.NewCoordinator(inst, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	t := time.Now()
	res, err := c.Run()
	return res, time.Since(t), err
}

// coordJob is an in-process run of one configured coordinator.
type coordJob struct{ c *core.Coordinator }

func (j coordJob) run() (*outcome, error) {
	res, err := j.c.Run()
	return &outcome{res: res}, err
}

func (j coordJob) close() { j.c.Close() }

func coordinatorSetup(cfg func() core.Config) func(*bench, *model.Instance, int64) (job, error) {
	return func(_ *bench, inst *model.Instance, _ int64) (job, error) {
		c, err := core.NewCoordinator(inst, cfg())
		if err != nil {
			return nil, err
		}
		return coordJob{c}, nil
	}
}

// ---- sparse-gs-memo ----

// sparseConfig stops at a bitwise fixed point or after four sweeps. The
// budget keeps run time comparable across instances: the sweeps to a fixed
// point have a long tail (some instances oscillate to any budget), while
// by the fourth sweep the memo already answers about a quarter of the
// phases.
func sparseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxSweeps = 4
	cfg.Gamma = 1e-300
	return cfg
}

func memoOff(cfg core.Config) core.Config {
	cfg.DisableIncremental = true
	return cfg
}

// sparseGate: the memo run must equal the memo-off run bit for bit.
func sparseGate(_ *bench, inst *model.Instance, _ int64) (*core.RunResult, error) {
	memo, _, err := runCoordinator(inst, sparseConfig())
	if err != nil {
		return nil, err
	}
	ref, _, err := runCoordinator(inst, memoOff(sparseConfig()))
	if err != nil {
		return nil, err
	}
	if err := sameRun(memo, ref); err != nil {
		return nil, fmt.Errorf("memo run differs from memo-off run: %w", err)
	}
	return memo, feasible(inst, memo)
}

func sparseTrace(_ *bench, tr *tracer, run int, inst *model.Instance, _ int64) (map[string]float64, *core.RunResult, error) {
	memo, _, err := runCoordinator(inst, sparseConfig())
	if err != nil {
		return nil, nil, err
	}
	ref, untraced, err := runCoordinator(inst, memoOff(sparseConfig()))
	if err != nil {
		return nil, nil, err
	}
	cfg := sparseConfig()
	r, res, err := tracedReplay(tr, run, inst, cfg.Gamma, cfg.MaxSweeps, nil, (*replay).gaussSeidel)
	if err != nil {
		return nil, nil, err
	}
	if err := sameRun(ref, memo); err != nil {
		return nil, nil, fmt.Errorf("memo-off run differs from the memo run: %w", err)
	}
	if err := sameRun(res, memo); err != nil {
		return nil, nil, fmt.Errorf("traced replay differs from the memo run: %w", err)
	}
	m := replayMetrics(tr, run, r)
	m["core.memo.skipped_frac"] = skippedFrac(memo)
	m["untraced_s"] = untraced.Seconds()
	return m, memo, feasible(inst, memo)
}

// tracedReplay builds a replay under a "setup" root and runs body under a
// "run" root of traced run number run.
func tracedReplay(tr *tracer, run int, inst *model.Instance, gamma float64, maxSweeps int,
	configure func(*replay), body func(*replay, *core.SweepState) (*core.RunResult, error)) (*replay, *core.RunResult, error) {
	s := tr.root("setup", run)
	r, err := newReplay(tr, inst, gamma, maxSweeps)
	tr.pop(s)
	if err != nil {
		return nil, nil, err
	}
	if configure != nil {
		configure(r)
	}
	s = tr.root("run", run)
	res, err := body(r, core.NewSweepState(inst, identity(inst.N)))
	tr.pop(s)
	return r, res, err
}

// ---- dense-jacobi-par2 ----

func denseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineParallelJacobi
	cfg.Workers = 2
	cfg.MaxSweeps = 1
	cfg.Gamma = 1e-300
	return cfg
}

// sequentialJacobi is the reference engine the 2-worker pool must match.
func sequentialJacobi() core.Config {
	cfg := denseConfig()
	cfg.Engine = core.EngineJacobi
	cfg.Workers = 0
	cfg.DisableIncremental = true
	return cfg
}

// denseGate: the 2-worker run must equal the sequential reference.
func denseGate(_ *bench, inst *model.Instance, _ int64) (*core.RunResult, error) {
	par, _, err := runCoordinator(inst, denseConfig())
	if err != nil {
		return nil, err
	}
	seq, _, err := runCoordinator(inst, sequentialJacobi())
	if err != nil {
		return nil, err
	}
	if err := sameRun(par, seq); err != nil {
		return nil, fmt.Errorf("2-worker run differs from the sequential reference: %w", err)
	}
	return par, feasible(inst, par)
}

func denseTrace(_ *bench, tr *tracer, run int, inst *model.Instance, _ int64) (map[string]float64, *core.RunResult, error) {
	seq, seqTime, err := runCoordinator(inst, sequentialJacobi())
	if err != nil {
		return nil, nil, err
	}
	par, parTime, err := runCoordinator(inst, denseConfig())
	if err != nil {
		return nil, nil, err
	}
	cfg := denseConfig()
	r, res, err := tracedReplay(tr, run, inst, cfg.Gamma, cfg.MaxSweeps, nil, (*replay).jacobi)
	if err != nil {
		return nil, nil, err
	}
	if err := sameRun(par, seq); err != nil {
		return nil, nil, fmt.Errorf("2-worker run differs from the sequential reference: %w", err)
	}
	if err := sameRun(res, seq); err != nil {
		return nil, nil, fmt.Errorf("traced replay differs from the sequential reference: %w", err)
	}
	m := replayMetrics(tr, run, r)
	m["core.memo.skipped_frac"] = skippedFrac(par)
	m["untraced_s"] = seqTime.Seconds()
	m["core.pool.speedup"] = seqTime.Seconds() / parTime.Seconds()
	m["core.pool.efficiency"] = m["core.solve.busy_s"] / (2 * parTime.Seconds())
	return m, par, feasible(inst, par)
}

// ---- tcp-gs-lppm ----

const (
	tcpSweeps = 12 // the sweep budget SolveWithPrivacy uses under LPPM
	// runTimeout bounds a distributed run that lost a message; a healthy
	// one takes about a second.
	runTimeout = 30 * time.Second
)

func sbsName(n int) string { return fmt.Sprintf("sbs-%d", n) }

// sbsPrivacy gives SBS n its own noise stream, derived from the instance
// seed; the same seeds drive the TCP run, sim.RunInmem and the replay.
func sbsPrivacy(seed int64, n int) *core.PrivacyConfig {
	return &core.PrivacyConfig{Epsilon: lppmEpsilon, Delta: lppmDelta,
		Noise: core.NewNoiseSource(seed*1009 + int64(n))}
}

func tcpBSConfig() sim.BSConfig {
	return sim.BSConfig{MaxSweeps: tcpSweeps, Gamma: 1e-300}
}

// tcpJob is one BS agent and N SBS agents in this process, connected over
// loopback TCPEndpoint+ReliableEndpoint as the cluster agents are.
type tcpJob struct {
	tcps     []*transport.TCPEndpoint
	rels     []*transport.ReliableEndpoint
	bsEp     *bsEndpoint
	counting *transport.CountingEndpoint
	bs       *sim.BSAgent
	agents   []*sim.SBSAgent
	events   *sim.EventCounter
	tr       *tracer
}

func tcpSetup(_ *bench, inst *model.Instance, seed int64) (job, error) {
	return newTCPJob(inst, seed, nil)
}

// newTCPJob builds the agents and endpoints. With a tracer, the endpoints
// record spans under a "run" root opened by run.
func newTCPJob(inst *model.Instance, seed int64, tr *tracer) (*tcpJob, error) {
	j := &tcpJob{tr: tr, events: &sim.EventCounter{}}
	open := func(name string, retrySeed int64) (*transport.TCPEndpoint, *transport.ReliableEndpoint, error) {
		ep, err := transport.NewTCPEndpoint(name, "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		j.tcps = append(j.tcps, ep)
		rel, err := transport.NewReliableEndpoint(ep, transport.RetryPolicy{Seed: retrySeed})
		if err != nil {
			return nil, nil, err
		}
		j.rels = append(j.rels, rel)
		return ep, rel, nil
	}
	bsTCP, bsRel, err := open("bs", 0)
	if err != nil {
		j.close()
		return nil, err
	}
	j.bsEp = &bsEndpoint{Endpoint: bsRel, gap: -1,
		sent: make(map[phaseKey]time.Time), phaseSpan: make(map[phaseKey]int)}
	j.counting = transport.NewCountingEndpoint(j.bsEp)
	names := make([]string, inst.N)
	for n := range names {
		names[n] = sbsName(n)
		ep, rel, err := open(names[n], int64(n)+1)
		if err != nil {
			j.close()
			return nil, err
		}
		ep.AddPeer("bs", bsTCP.Addr())
		bsTCP.AddPeer(names[n], ep.Addr())
		var sbsEp transport.Endpoint = rel
		if tr != nil {
			sbsEp = &sbsEndpoint{Endpoint: rel, tr: tr, bs: j.bsEp, turn: -1}
		}
		agent, err := sim.NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), sbsPrivacy(seed, n), sbsEp, "bs")
		if err != nil {
			j.close()
			return nil, err
		}
		agent.SetEventHook(j.events.Hook())
		j.agents = append(j.agents, agent)
	}
	bsCfg := tcpBSConfig()
	bsCfg.OnEvent = j.events.Hook()
	j.bs, err = sim.NewBSAgent(inst, bsCfg, j.counting, names)
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

func (j *tcpJob) run() (*outcome, error) {
	root := -1
	if j.tr != nil {
		root = j.tr.root("run", j.tr.run)
		j.bsEp.start(j.tr, root)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var wg sync.WaitGroup
	agentErrs := make([]error, len(j.agents))
	for n, a := range j.agents {
		wg.Add(1)
		go func(n int, a *sim.SBSAgent) {
			defer wg.Done()
			agentErrs[n] = a.Run(ctx)
		}(n, a)
	}
	res, err := j.bs.Run(ctx)
	if err != nil {
		cancel()
	}
	wg.Wait()
	j.bsEp.finish()
	if j.tr != nil {
		j.tr.pop(root)
	}
	if err != nil {
		return nil, err
	}
	if err := errors.Join(agentErrs...); err != nil {
		return nil, fmt.Errorf("SBS agent: %w", err)
	}
	f := res.TotalFaults()
	faults := j.events.Total() + f.Misses + f.Retries + f.Malformed + f.QuarantineSpans + f.SkippedPhases + f.FailedProbes
	return &outcome{res: res, phaseMs: j.bsEp.phaseMs, wireBytes: j.counting.Stats().SentBytes, faults: faults}, nil
}

func (j *tcpJob) close() {
	for _, ep := range j.tcps {
		ep.Close()
	}
}

// runTCP sets up and runs one TCP job, timing the run.
func runTCP(inst *model.Instance, seed int64, tr *tracer) (*tcpJob, *outcome, time.Duration, error) {
	j, err := newTCPJob(inst, seed, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	defer j.close()
	t := time.Now()
	out, err := j.run()
	took := time.Since(t)
	if err == nil && out.faults != 0 {
		err = fmt.Errorf("%d protocol faults on a fault-free network", out.faults)
	}
	return j, out, took, err
}

// tcpGate: the TCP run must equal sim.RunInmem with the same per-SBS noise
// seeds, with no fault events.
func tcpGate(_ *bench, inst *model.Instance, seed int64) (*core.RunResult, error) {
	_, out, _, err := runTCP(inst, seed, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	inmem, err := sim.RunInmem(ctx, inst, tcpBSConfig(), core.DefaultSubproblemConfig(),
		func(n int) *core.PrivacyConfig { return sbsPrivacy(seed, n) })
	if err != nil {
		return nil, err
	}
	if err := sameRun(out.res, inmem); err != nil {
		return nil, fmt.Errorf("TCP run differs from sim.RunInmem: %w", err)
	}
	return out.res, feasible(inst, out.res)
}

// perSBSPerturb applies each SBS's own LPPM stream, as the agents do, and
// returns the streams so their draws can be counted.
func perSBSPerturb(inst *model.Instance, seed int64) (func(int, model.Mat) (model.Mat, error), []*core.NoiseSource, error) {
	lps := make([]*core.LPPM, inst.N)
	noise := make([]*core.NoiseSource, inst.N)
	for n := range lps {
		cfg := sbsPrivacy(seed, n)
		lp, err := core.NewLPPM(*cfg)
		if err != nil {
			return nil, nil, err
		}
		lps[n], noise[n] = lp, cfg.Noise
	}
	return func(n int, y model.Mat) (model.Mat, error) { return lps[n].Perturb(sbsName(n), y) }, noise, nil
}

func tcpTrace(_ *bench, tr *tracer, run int, inst *model.Instance, seed int64) (map[string]float64, *core.RunResult, error) {
	_, plain, untraced, err := runTCP(inst, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	tr.run = run
	j, traced, _, err := runTCP(inst, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	// The agents' solves happen inside internal/sim; the replay computes the
	// same trajectory in process and attributes its core and model time.
	perturb, noise, err := perSBSPerturb(inst, seed)
	if err != nil {
		return nil, nil, err
	}
	s := tr.root("setup", run)
	r, err := newReplay(tr, inst, 1e-300, tcpSweeps)
	tr.pop(s)
	if err != nil {
		return nil, nil, err
	}
	r.perturb = perturb
	s = tr.root("replay", run)
	res, err := r.gaussSeidel(core.NewSweepState(inst, identity(inst.N)))
	tr.pop(s)
	if err != nil {
		return nil, nil, err
	}
	if err := sameRun(traced.res, plain.res); err != nil {
		return nil, nil, fmt.Errorf("traced TCP run differs from the untraced one: %w", err)
	}
	if err := sameRun(res, plain.res); err != nil {
		return nil, nil, fmt.Errorf("replay differs from the untraced TCP run: %w", err)
	}
	m := replayMetrics(tr, run, r)
	l := tr.layers(run)["run"]
	var sends, retries int64
	for _, rel := range j.rels {
		st := rel.Stats()
		sends += st.Sends
		retries += st.Retries
	}
	m["transport.msgs"] = float64(sends)
	m["transport.retries"] = float64(retries)
	m["transport.recv.wait_s"] = j.bsEp.recvWait.Seconds()
	m["sim.sbs.turnaround_ms_p50"] = msP50(l["sim.sbs.turnaround"])
	m["sim.bs.overhead_ms_p50"] = msP50(l["sim.bs.overhead"])
	m["sim.faults"] = float64(traced.faults)
	var draws uint64
	for _, ns := range noise {
		_, d := ns.Pos()
		draws += d
	}
	m["core.lppm.noise_draws"] = float64(draws)
	m["core.memo.skipped_frac"] = skippedFrac(plain.res) // the BS agent has no memo: 0
	m["wire_bytes_per_sweep"] = float64(traced.wireBytes) / float64(traced.res.Sweeps)
	m["untraced_s"] = untraced.Seconds()
	return m, plain.res, feasible(inst, plain.res)
}

func msP50(st *layerStat) float64 {
	if st == nil {
		return 0
	}
	return percentile(st.durs, 50) * 1e3
}

// ---- ckpt-gs-lppm ----

// ckptSweeps is the full run; a job checkpoints the first half, recovers
// from disk and resumes the second.
const (
	ckptSweeps = 12
	ckptRetain = 3
)

func ckptConfig(sweeps int, sink model.CheckpointSink, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxSweeps = sweeps
	cfg.Gamma = 1e-300
	cfg.Privacy = &core.PrivacyConfig{Epsilon: lppmEpsilon, Delta: lppmDelta, Noise: core.NewNoiseSource(seed)}
	if sink != nil {
		cfg.Checkpoint = &core.CheckpointConfig{Sink: sink} // every sweep boundary
	}
	return cfg
}

type ckptJob struct {
	inst  *model.Instance
	seed  int64
	dir   string
	store *model.CheckpointStore
	first *core.Coordinator
}

func ckptSetup(b *bench, inst *model.Instance, seed int64) (job, error) {
	return newCkptJob(b, inst, seed)
}

// newCkptJob opens a store in a fresh directory and builds the coordinator
// of the first half.
func newCkptJob(b *bench, inst *model.Instance, seed int64) (*ckptJob, error) {
	dir, store, err := newStore(b, nil)
	if err != nil {
		return nil, err
	}
	j := &ckptJob{inst: inst, seed: seed, dir: dir, store: store}
	if j.first, err = core.NewCoordinator(inst, ckptConfig(ckptSweeps/2, j.store, seed)); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// newStore opens a checkpoint store in a fresh directory under the
// benchmark's scratch directory, through fs when it is non-nil.
func newStore(b *bench, fs model.CheckpointFS) (string, *model.CheckpointStore, error) {
	dir, err := os.MkdirTemp(b.tmpDir, "ckpt-")
	if err != nil {
		return "", nil, err
	}
	store, err := model.NewCheckpointStoreFS(dir, ckptRetain, fs)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return dir, store, nil
}

func (j *ckptJob) run() (*outcome, error) {
	if _, err := j.first.Run(); err != nil {
		return nil, err
	}
	t := time.Now()
	ck, err := j.store.DeepLatest()
	if err != nil {
		return nil, err
	}
	second, err := core.NewCoordinator(j.inst, ckptConfig(ckptSweeps, j.store, j.seed))
	if err != nil {
		return nil, err
	}
	defer second.Close()
	recoverS := time.Since(t).Seconds()
	res, err := second.Resume(ck)
	return &outcome{res: res, recoverS: recoverS}, err
}

func (j *ckptJob) close() {
	if j.first != nil {
		j.first.Close()
	}
	os.RemoveAll(j.dir)
}

// ckptGate: the recovered and resumed run must equal an uninterrupted,
// uncheckpointed run.
func ckptGate(b *bench, inst *model.Instance, seed int64) (*core.RunResult, error) {
	j, err := newCkptJob(b, inst, seed)
	if err != nil {
		return nil, err
	}
	defer j.close()
	out, err := j.run()
	if err != nil {
		return nil, err
	}
	ref, _, err := runCoordinator(inst, ckptConfig(ckptSweeps, nil, seed))
	if err != nil {
		return nil, err
	}
	if err := sameRun(out.res, ref); err != nil {
		return nil, fmt.Errorf("resumed run differs from the uninterrupted run: %w", err)
	}
	return out.res, feasible(inst, out.res)
}

func ckptTrace(b *bench, tr *tracer, run int, inst *model.Instance, seed int64) (map[string]float64, *core.RunResult, error) {
	plain, err := newCkptJob(b, inst, seed)
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	ref, err := plain.run()
	untraced := time.Since(t)
	plain.close()
	if err != nil {
		return nil, nil, err
	}

	// The traced run replays the first half (checkpointing through timing
	// wrappers), then recovers and resumes through the coordinator.
	fs := &timedFS{tr: tr, inner: model.OSCheckpointFS{}}
	dir, store, err := newStore(b, fs)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	sink := &timedSink{tr: tr, inner: store}
	noise := core.NewNoiseSource(seed)
	lp, err := core.NewLPPM(core.PrivacyConfig{Epsilon: lppmEpsilon, Delta: lppmDelta, Noise: noise})
	if err != nil {
		return nil, nil, err
	}
	second := ckptConfig(ckptSweeps, sink, seed)
	r, res, err := tracedReplay(tr, run, inst, 1e-300, ckptSweeps/2,
		func(r *replay) {
			r.perturb = lp.PerturbSBS
			r.snapshot = func(st *core.SweepState, res *core.RunResult, sweep int) error {
				return sink.Save(snapshot(tr, r.subs, noise, inst, st, res, sweep))
			}
		},
		func(r *replay, st *core.SweepState) (*core.RunResult, error) {
			if _, err := r.gaussSeidel(st); err != nil {
				return nil, err
			}
			s := tr.push("model.ckpt.deeplatest")
			ck, err := store.DeepLatest()
			tr.pop(s)
			if err != nil {
				return nil, err
			}
			s = tr.push("core.newcoordinator")
			resumed, err := core.NewCoordinator(inst, second)
			tr.pop(s)
			if err != nil {
				return nil, err
			}
			defer resumed.Close()
			s = tr.push("core.resume")
			res, err := resumed.Resume(ck)
			tr.pop(s)
			return res, err
		})
	if err != nil {
		return nil, nil, err
	}
	if err := sameRun(res, ref.res); err != nil {
		return nil, nil, fmt.Errorf("traced replay and resume differ from the untraced run: %w", err)
	}
	m := replayMetrics(tr, run, r)
	l := tr.layers(run)["run"]
	m["core.memo.skipped_frac"] = skippedFrac(ref.res) // the resumed half
	m["model.ckpt.saves"] = float64(sink.saves)
	m["model.ckpt.bytes_per_save"] = float64(fs.written) / float64(sink.saves)
	if st := l["model.ckpt.save"]; st != nil {
		m["model.ckpt.encode.busy_s"] = st.self
	}
	if st := l["model.ckpt.fsync"]; st != nil {
		m["model.ckpt.fsync.ms_p99"] = percentile(st.durs, 99) * 1e3
	}
	_, draws := second.Privacy.Noise.Pos()
	m["core.lppm.noise_draws"] = float64(draws)
	m["untraced_s"] = untraced.Seconds()
	return m, ref.res, feasible(inst, ref.res)
}

// snapshot builds the checkpoint core.Coordinator captures at the start of
// a sweep, field for field; the resume from it is checked against the
// uninterrupted run.
func snapshot(tr *tracer, subs []*core.Subproblem, noise *core.NoiseSource, inst *model.Instance,
	st *core.SweepState, res *core.RunResult, sweep int) *model.Checkpoint {
	s := tr.push("model.ckpt.build")
	defer tr.pop(s)
	ck := &model.Checkpoint{
		Sweep:      sweep,
		Engine:     model.EngineGaussSeidel,
		Order:      append([]int(nil), st.Order...),
		Caching:    st.X.Clone(),
		Routing:    st.Y.Clone(),
		Aggregate:  st.Tracker.Aggregate().Clone(),
		History:    append([]float64(nil), res.History...),
		PrevCost:   st.PrevCost,
		Best:       st.Best.Clone(),
		Mu:         make([][]float64, len(subs)),
		InstanceFP: inst.Fingerprint(),
		HasNoise:   true,
	}
	for n, sub := range subs {
		ck.Mu[n] = sub.Multipliers()
	}
	ck.NoiseSeed, ck.NoiseDraws = noise.Pos()
	return ck
}
