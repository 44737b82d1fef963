// Package soak is the randomized chaos soak harness: K seeded episodes of
// randomly generated fault schedules (chaos.RandomSchedule) run against an
// invariant checker, with ddmin-style delta debugging shrinking the first
// failing schedule to a minimal repro file. The point is to find the
// failure sequences nobody wrote down: hand-written chaos specs only ever
// test the interleavings a human imagined.
//
// Invariants per episode:
//
//   - run-error: the chaos run itself must not error.
//   - converged: the run converges within the sweep budget (checked only
//     for self-healing schedules — every fired crash/partition followed by
//     its restart/heal; a schedule whose restart never fired legitimately
//     ends with a dead SBS).
//   - cost-tolerance: the final cost lands within 5% of the fault-free
//     reference (same self-healing gate).
//   - feasible: the final solution satisfies every model constraint.
//   - accounting: the BS event counter and the per-SBS fault stats agree
//     (misses, quarantine spans, retries).
//   - goroutine-leak: the goroutine count returns to its pre-episode
//     baseline (internal/leak).
//   - disk-recovery: with DiskFaults, a checkpointed run over a
//     fault-injecting filesystem stays bit-identical to the reference, and
//     Scrub+DeepLatest recover a resumable snapshot whose resumed
//     trajectory is bit-identical too.
package soak

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"edgecache/internal/chaos"
	"edgecache/internal/core"
	"edgecache/internal/experiments"
	"edgecache/internal/leak"
	"edgecache/internal/model"
	"edgecache/internal/sim"
)

// Config tunes a soak run. The zero value (plus nothing else) is a valid
// small smoke configuration.
type Config struct {
	// Episodes is the in-process episode count (default 10).
	Episodes int
	// Seed derives every episode's seed; the same Seed replays the same
	// soak.
	Seed int64
	// DiskFaults enables the per-episode disk fault drill (default off;
	// the edgesim -soak gate and nightly job turn it on).
	DiskFaults bool
	// ReproDir receives the minimized repro file on failure ("" writes
	// it to the working directory).
	ReproDir string
	// ClusterEpisodes appends multi-process episodes with randomized
	// process-fault schedules; requires Command (the agent binary).
	ClusterEpisodes int
	Command         []string
	// Log receives progress lines (nil discards them).
	Log io.Writer
	// CheckEpisode, when non-nil, contributes extra violations per
	// episode — the hook tests use to inject a broken invariant and
	// prove the shrink-and-repro pipeline end to end.
	CheckEpisode func(*Episode) []Violation
}

const (
	// costTolerance is the allowed relative cost gap vs the fault-free
	// reference (the chaos acceptance bound).
	costTolerance = 0.05
	// shrinkRuns bounds the ddmin re-executions of one failure.
	shrinkRuns = 100
)

// episodeScenario builds an in-process episode's instance at a fixed
// scale, small enough that one episode runs in well under a second
// fault-free. The seed fully determines the instance.
func episodeScenario(seed int64) (*model.Instance, error) {
	sc := experiments.DefaultScenario()
	sc.SBSs = 3
	sc.Groups = 10
	sc.LinkCount = 14
	sc.Videos = 16
	sc.CachePerSBS = 4
	sc.Seed = seed
	return sc.Build()
}

// Episode is one executed soak episode, handed to CheckEpisode hooks.
type Episode struct {
	Index    int
	Seed     int64
	Inst     *model.Instance
	Schedule chaos.Schedule
	Baseline *core.RunResult
	Result   *core.RunResult
	Report   *chaos.Report
	RunErr   error
}

// Violation is one failed invariant.
type Violation struct {
	// Invariant is the stable name ("converged", "cost-tolerance", ...).
	Invariant string
	// Detail is the human-readable diagnosis.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Failure describes the first failing episode, after shrinking.
type Failure struct {
	Episode    int
	Seed       int64
	Violations []Violation
	// Schedule is the original failing schedule; Minimized the ddmin
	// result (equal when shrinking could not remove anything). For
	// cluster episodes the Proc pair is set instead.
	Schedule  chaos.Schedule
	Minimized chaos.Schedule
	Proc      chaos.ProcSchedule
	MinProc   chaos.ProcSchedule
	Cluster   bool
	// ShrinkRuns counts the ddmin re-executions spent.
	ShrinkRuns int
	// ReproPath is the written repro file.
	ReproPath string
}

// Result summarizes a soak run.
type Result struct {
	// Episodes and ClusterEpisodes count episodes that PASSED.
	Episodes        int
	ClusterEpisodes int
	// Failure is non-nil when an invariant broke (the soak stops at the
	// first failure).
	Failure *Failure
	// DiskStats accumulates the injected disk faults across episodes.
	DiskStats model.FaultFSStats
}

// episodeBSConfig is the protocol tuning every episode runs under — the
// chaos acceptance-test configuration: timeouts short enough to keep
// faulty episodes fast, retry/quarantine budgets that survive 30% loss.
func episodeBSConfig() sim.BSConfig {
	return sim.BSConfig{
		PhaseTimeout:     800 * time.Millisecond,
		AnnounceRetries:  5,
		QuarantineSweeps: 2,
		MaxSweeps:        40,
	}
}

// Run executes the soak: Episodes in-process episodes, then
// ClusterEpisodes supervised multi-process episodes, stopping at (and
// shrinking) the first failure. The returned error covers harness
// breakage (cannot build an instance, cannot write the repro); invariant
// failures are reported through Result.Failure, not the error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Episodes == 0 {
		cfg.Episodes = 10
	}
	if cfg.ClusterEpisodes > 0 && len(cfg.Command) == 0 {
		return nil, fmt.Errorf("soak: ClusterEpisodes > 0 requires Command (the agent binary to supervise)")
	}
	r := &soakRun{cfg: cfg, res: &Result{}}
	for i := 0; i < cfg.Episodes; i++ {
		if err := ctx.Err(); err != nil {
			return r.res, err
		}
		ep, violations, err := r.runEpisode(ctx, i)
		if err != nil {
			return r.res, err
		}
		if len(violations) > 0 {
			r.logf("episode %d FAILED: %v (schedule %s)", i, violations, ep.Schedule.Spec())
			failure, err := r.shrink(ctx, ep, violations)
			if err != nil {
				return r.res, err
			}
			r.res.Failure = failure
			return r.res, nil
		}
		r.res.Episodes++
		r.logf("episode %d ok (seed %d, %d events, %d sweeps)", i, ep.Seed, len(ep.Schedule.Events), ep.Result.Sweeps)
	}
	if cfg.ClusterEpisodes > 0 {
		if err := r.runClusterEpisodes(ctx); err != nil {
			return r.res, err
		}
	}
	return r.res, nil
}

// soakRun carries the mutable state of one Run call.
type soakRun struct {
	cfg Config
	res *Result
}

func (r *soakRun) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "soak: "+format+"\n", args...)
	}
}

// episodeSeed derives episode i's seed from the base seed.
func (r *soakRun) episodeSeed(i int) int64 {
	return r.cfg.Seed + int64(i)*1_000_003
}

// baseline runs the fault-free in-process reference for the instance.
func baseline(inst *model.Instance) (*core.RunResult, error) {
	coord, err := core.NewCoordinator(inst, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	return coord.Run()
}

// runEpisode generates, executes and checks one episode.
func (r *soakRun) runEpisode(ctx context.Context, i int) (*Episode, []Violation, error) {
	seed := r.episodeSeed(i)
	inst, err := episodeScenario(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("soak: episode %d: build instance: %w", i, err)
	}
	sched, err := chaos.RandomSchedule(seed, inst.N)
	if err != nil {
		return nil, nil, fmt.Errorf("soak: episode %d: %w", i, err)
	}
	base, err := baseline(inst)
	if err != nil {
		return nil, nil, fmt.Errorf("soak: episode %d: baseline: %w", i, err)
	}
	ep := &Episode{Index: i, Seed: seed, Inst: inst, Schedule: sched, Baseline: base}
	violations := r.execute(ctx, ep)
	return ep, violations, nil
}

// execute runs the episode's schedule and checks every invariant; it is
// also the re-execution ddmin drives with candidate sub-schedules.
func (r *soakRun) execute(ctx context.Context, ep *Episode) []Violation {
	before := leak.Take()
	res, report, runErr := chaos.Run(ctx, ep.Inst, chaos.Config{
		BS:       episodeBSConfig(),
		Sub:      core.DefaultSubproblemConfig(),
		Schedule: ep.Schedule,
	})
	ep.Result, ep.Report, ep.RunErr = res, report, runErr

	var violations []Violation
	if runErr != nil {
		violations = append(violations, Violation{"run-error", runErr.Error()})
	} else {
		violations = append(violations, r.checkProtocol(ep)...)
	}
	if err := before.Diff(); err != nil {
		violations = append(violations, Violation{"goroutine-leak", err.Error()})
	}
	if r.cfg.DiskFaults {
		violations = append(violations, r.diskDrill(ep)...)
	}
	if r.cfg.CheckEpisode != nil {
		violations = append(violations, r.cfg.CheckEpisode(ep)...)
	}
	return violations
}

// checkProtocol evaluates the protocol invariants on a completed run.
func (r *soakRun) checkProtocol(ep *Episode) []Violation {
	var violations []Violation
	res, report := ep.Result, ep.Report

	// Liveness invariants only hold for self-healing outcomes: a
	// schedule whose restart never fired (the run converged first, or a
	// ddmin subset dropped it) legitimately ends with a dead SBS.
	if selfHealed(report) {
		if !res.Converged {
			violations = append(violations, Violation{"converged",
				fmt.Sprintf("did not converge in %d sweeps (faults %+v)", res.Sweeps, res.TotalFaults())})
		}
		if diff := relDiff(res.Solution.Cost.Total, ep.Baseline.Solution.Cost.Total); diff > costTolerance {
			violations = append(violations, Violation{"cost-tolerance",
				fmt.Sprintf("final cost %v is %.2f%% from fault-free %v (tolerance %.2f%%)",
					res.Solution.Cost.Total, diff*100, ep.Baseline.Solution.Cost.Total, costTolerance*100)})
		}
	}

	// Safety invariants always apply.
	if vs := model.CheckFeasibility(ep.Inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		violations = append(violations, Violation{"feasible", model.FormatViolations(vs)})
	}
	total := res.TotalFaults()
	if got := report.Counter.Count(sim.EventUploadTimeout); got != total.Misses {
		violations = append(violations, Violation{"accounting",
			fmt.Sprintf("counter misses %d != stats misses %d", got, total.Misses)})
	}
	if got := report.Counter.Count(sim.EventQuarantine); got != total.QuarantineSpans {
		violations = append(violations, Violation{"accounting",
			fmt.Sprintf("counter quarantines %d != stats spans %d", got, total.QuarantineSpans)})
	}
	if got := report.Counter.Count(sim.EventAnnounceRetry); got != total.Retries {
		violations = append(violations, Violation{"accounting",
			fmt.Sprintf("counter retries %d != stats retries %d", got, total.Retries)})
	}
	return violations
}

// selfHealed reports whether the run ended with every target recovered:
// each fired crash/partition followed by its restart/heal, and no
// recovery events left unfired.
func selfHealed(report *chaos.Report) bool {
	down := map[int]bool{}
	cut := map[int]bool{}
	for _, f := range report.Fired {
		switch f.Op {
		case chaos.OpCrash:
			down[f.SBS] = true
		case chaos.OpRestart:
			delete(down, f.SBS)
		case chaos.OpPartition:
			cut[f.SBS] = true
		case chaos.OpHeal:
			delete(cut, f.SBS)
		}
	}
	if len(down) > 0 || len(cut) > 0 {
		return false
	}
	for _, ev := range report.Unfired {
		switch ev.Op {
		case chaos.OpRestart, chaos.OpHeal, chaos.OpBSRestart:
			// A queued recovery that never ran: its crash may have fired
			// right at the end of the run. Only trust fully-recovered
			// outcomes.
			return false
		}
	}
	return true
}

// diskFaultConfig is the drill's injection mix: every fault class enabled,
// scaled so most episodes see at least one fault but an intact snapshot
// usually survives retention.
func diskFaultConfig(seed int64) model.FaultFSConfig {
	return model.FaultFSConfig{
		Seed:       seed,
		ShortWrite: 0.15,
		ENOSPC:     0.15,
		RenameFail: 0.10,
		TornRename: 0.15,
		BitRot:     0.20,
	}
}

// tolerantSink counts-but-swallows Save errors: the coordinator aborts a
// run on checkpoint failure (correct for production), but the disk drill
// wants the run to finish so recovery can be judged afterwards.
type tolerantSink struct {
	sink     model.CheckpointSink
	saveErrs int
}

func (t *tolerantSink) Save(ck *model.Checkpoint) error {
	if err := t.sink.Save(ck); err != nil {
		t.saveErrs++
	}
	return nil
}

// diskDrill runs the disk fault domain for one episode: a checkpointed
// fault-free run over a FaultFS-backed store, then Scrub + DeepLatest +
// Resume, asserting bit-identity with the episode baseline throughout.
func (r *soakRun) diskDrill(ep *Episode) []Violation {
	dir, err := os.MkdirTemp("", "soak-disk-")
	if err != nil {
		return []Violation{{"disk-recovery", fmt.Sprintf("temp dir: %v", err)}}
	}
	defer os.RemoveAll(dir)

	ffs := model.NewFaultFS(model.OSCheckpointFS{}, diskFaultConfig(ep.Seed))
	store, err := model.NewCheckpointStoreFS(dir, 5, ffs)
	if err != nil {
		return []Violation{{"disk-recovery", fmt.Sprintf("open store: %v", err)}}
	}
	sink := &tolerantSink{sink: store}

	cfg := core.DefaultConfig()
	cfg.Checkpoint = &core.CheckpointConfig{Sink: sink}
	coord, err := core.NewCoordinator(ep.Inst, cfg)
	if err != nil {
		return []Violation{{"disk-recovery", fmt.Sprintf("coordinator: %v", err)}}
	}
	res, err := coord.Run()
	coord.Close()
	if err != nil {
		return []Violation{{"disk-recovery", fmt.Sprintf("checkpointed run: %v", err)}}
	}
	stats := ffs.Stats()
	r.accumulateDisk(stats)

	var violations []Violation
	// Checkpointing through a faulty disk must not perturb the solve.
	if msg := bitDiff(res, ep.Baseline); msg != "" {
		violations = append(violations, Violation{"disk-recovery",
			"checkpointed run diverged from reference: " + msg})
	}

	// Recovery: quarantine the corrupt snapshots, resume from the newest
	// intact one, and land on the identical trajectory.
	report, err := store.Scrub()
	if err != nil {
		return append(violations, Violation{"disk-recovery", fmt.Sprintf("scrub: %v", err)})
	}
	ck, err := store.DeepLatest()
	if err != nil {
		if report.Intact == 0 {
			// Every save failed or rotted — legitimate under heavy
			// injection; there is nothing to resume and that is visible
			// to the operator (saveErrs, quarantine list), not silent.
			r.logf("disk drill: no intact snapshot (saves failed %d, quarantined %d, faults %+v)",
				sink.saveErrs, len(report.Quarantined), stats)
			return violations
		}
		return append(violations, Violation{"disk-recovery",
			fmt.Sprintf("DeepLatest failed with %d intact snapshots: %v", report.Intact, err)})
	}
	fresh, err := core.NewCoordinator(ep.Inst, cfg)
	if err != nil {
		return append(violations, Violation{"disk-recovery", fmt.Sprintf("resume coordinator: %v", err)})
	}
	resumed, err := fresh.Resume(ck)
	fresh.Close()
	if err != nil {
		return append(violations, Violation{"disk-recovery",
			fmt.Sprintf("resume from sweep %d: %v", ck.Sweep, err)})
	}
	if msg := bitDiff(resumed, ep.Baseline); msg != "" {
		violations = append(violations, Violation{"disk-recovery",
			fmt.Sprintf("resume from sweep %d diverged from reference: %s", ck.Sweep, msg)})
	}
	return violations
}

// accumulateDisk folds one drill's fault stats into the result.
func (r *soakRun) accumulateDisk(s model.FaultFSStats) {
	r.res.DiskStats.ShortWrites += s.ShortWrites
	r.res.DiskStats.ENOSPC += s.ENOSPC
	r.res.DiskStats.RenameFails += s.RenameFails
	r.res.DiskStats.TornRenames += s.TornRenames
	r.res.DiskStats.BitRots += s.BitRots
}

// bitDiff compares two run results bit-for-bit (history and final cost);
// "" means identical.
func bitDiff(got, want *core.RunResult) string {
	if len(got.History) != len(want.History) {
		return fmt.Sprintf("history length %d vs %d", len(got.History), len(want.History))
	}
	for i := range got.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
			return fmt.Sprintf("history[%d] %v vs %v", i, got.History[i], want.History[i])
		}
	}
	if math.Float64bits(got.Solution.Cost.Total) != math.Float64bits(want.Solution.Cost.Total) {
		return fmt.Sprintf("final cost %v vs %v", got.Solution.Cost.Total, want.Solution.Cost.Total)
	}
	return ""
}

// relDiff is the relative cost gap |a-b| / max(|b|, eps).
func relDiff(a, b float64) float64 {
	denom := math.Abs(b)
	if denom < 1e-9 {
		denom = 1e-9
	}
	return math.Abs(a-b) / denom
}

// shrink ddmin-minimizes the failing schedule's event list and writes the
// repro file.
func (r *soakRun) shrink(ctx context.Context, ep *Episode, violations []Violation) (*Failure, error) {
	failure := &Failure{
		Episode:    ep.Index,
		Seed:       ep.Seed,
		Violations: violations,
		Schedule:   ep.Schedule,
		Minimized:  ep.Schedule,
	}
	schedule := func(events []chaos.Event) chaos.Schedule {
		return chaos.Schedule{Seed: ep.Schedule.Seed, Links: ep.Schedule.Links, Events: events}
	}
	rerun := func(events []chaos.Event) []Violation {
		return r.execute(ctx, &Episode{
			Index:    ep.Index,
			Seed:     ep.Seed,
			Inst:     ep.Inst,
			Baseline: ep.Baseline,
			Schedule: schedule(events),
		})
	}
	return shrinkFailure(ctx, r, "shrink", failure, ep.Schedule.Events, rerun,
		func(events []chaos.Event) { failure.Minimized = schedule(events) })
}

// shrinkFailure is the one shrink driver of both episode kinds: it
// ddmin-minimizes events, records the result on failure through minimized,
// logs the reduction under label and writes the repro file. A candidate is
// "interesting" when its re-run violates at least one of the originally
// violated invariants; ddmin gets at most shrinkRuns re-runs.
func shrinkFailure[E any](ctx context.Context, r *soakRun, label string, failure *Failure,
	events []E, rerun func([]E) []Violation, minimized func([]E)) (*Failure, error) {
	want := map[string]bool{}
	for _, v := range failure.Violations {
		want[v.Invariant] = true
	}
	runs := 0
	interesting := func(cand []E) bool {
		if runs >= shrinkRuns || ctx.Err() != nil {
			return false
		}
		runs++
		for _, v := range rerun(cand) {
			if want[v.Invariant] {
				return true
			}
		}
		return false
	}
	minEvents := ddmin(events, interesting)
	failure.ShrinkRuns = runs
	minimized(minEvents)
	r.logf("%s: %d events -> %d (%d re-runs)", label, len(events), len(minEvents), runs)

	path, err := r.writeRepro(failure)
	if err != nil {
		return nil, err
	}
	failure.ReproPath = path
	return failure, nil
}

// writeRepro persists the failure as a repro file and returns its path.
func (r *soakRun) writeRepro(f *Failure) (string, error) {
	repro := Repro{Episode: f.Episode, Seed: f.Seed}
	if f.Cluster {
		repro.ProcSpec = f.MinProc.Spec()
	} else {
		repro.Spec = f.Minimized.Spec()
	}
	for _, v := range f.Violations {
		repro.Invariants = append(repro.Invariants, v.Invariant)
		repro.Detail = append(repro.Detail, v.String())
	}
	dir := r.cfg.ReproDir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("soak: repro dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("soak-repro-ep%d-seed%d.txt", f.Episode, f.Seed))
	if err := repro.WriteFile(path); err != nil {
		return "", fmt.Errorf("soak: write repro: %w", err)
	}
	r.logf("repro written: %s", path)
	return path, nil
}

// ReplayRepro re-executes a parsed repro under the same invariant checker
// and returns the violations it still triggers (empty means the failure no
// longer reproduces).
func ReplayRepro(ctx context.Context, cfg Config, repro Repro) ([]Violation, error) {
	if repro.Spec == "" {
		return nil, fmt.Errorf("soak: repro has no in-process spec (proc-spec replay runs through -cluster)")
	}
	sched, err := chaos.ParseSpec(repro.Spec)
	if err != nil {
		return nil, err
	}
	r := &soakRun{cfg: cfg, res: &Result{}}
	inst, err := episodeScenario(repro.Seed)
	if err != nil {
		return nil, err
	}
	base, err := baseline(inst)
	if err != nil {
		return nil, err
	}
	ep := &Episode{Index: repro.Episode, Seed: repro.Seed, Inst: inst, Schedule: sched, Baseline: base}
	return r.execute(ctx, ep), nil
}
