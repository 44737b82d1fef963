package chaos

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/sim"
	"edgecache/internal/transport"
)

func testInstance(seed int64, n, u, f int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
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
			inst.Links[i][j] = rng.Float64() < 0.6
			inst.EdgeCost[i][j] = 1 + rng.Float64()*3
		}
		inst.CacheCap[i] = 1 + rng.Intn(f/2+1)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func faultFreeBaseline(t *testing.T, inst *model.Instance) *core.RunResult {
	t.Helper()
	coord, err := core.NewCoordinator(inst, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAdvance(t *testing.T) {
	cases := []struct{ sweep, phase, d, n, wantS, wantP int }{
		{0, 0, 1, 3, 0, 1},
		{0, 2, 1, 3, 1, 0},
		{1, 0, 3, 3, 2, 0},
		{2, 1, 5, 4, 3, 2},
	}
	for _, c := range cases {
		s, p := advance(c.sweep, c.phase, c.d, c.n)
		if s != c.wantS || p != c.wantP {
			t.Errorf("advance(%d,%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.sweep, c.phase, c.d, c.n, s, p, c.wantS, c.wantP)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		{Links: transport.FaultConfig{DropProb: 2}},
		{Events: []Event{{Sweep: -1, SBS: 0, Op: OpCrash}}},
		{Events: []Event{{Phase: 3, SBS: 0, Op: OpCrash}}},
		{Events: []Event{{SBS: 3, Op: OpCrash}}},
		{Events: []Event{{SBS: -1, Op: OpCrash}}}, // -1 only valid for link faults
		{Events: []Event{{SBS: 0, Op: OpPartition, Phases: -1}}},
		{Events: []Event{{SBS: 0, Op: Op(99)}}},
		{Events: []Event{{SBS: -1, Op: OpLinkFaults, Faults: transport.FaultConfig{DupProb: -1}}}},
		{Links: transport.FaultConfig{DupProb: math.NaN()}},
		{Events: []Event{{Sweep: 1, SBS: 0, Op: OpLinkFaults, Faults: transport.FaultConfig{ReorderProb: math.NaN()}}}},
	}
	for i, s := range bad {
		if err := s.Validate(3); err == nil {
			t.Errorf("schedule %d: Validate(3) accepted invalid schedule", i)
		}
	}
	ok := Schedule{
		Links: transport.FaultConfig{DropProb: 0.5},
		Events: []Event{
			{Sweep: 2, SBS: 1, Op: OpCrash},
			{Sweep: 4, SBS: 1, Op: OpRestart},
			{Sweep: 1, SBS: -1, Op: OpLinkFaults, Faults: transport.FaultConfig{DupProb: 0.2}},
		},
	}
	if err := ok.Validate(3); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	sorted := ok.sortedEvents()
	if sorted[0].Op != OpLinkFaults || sorted[1].Op != OpCrash || sorted[2].Op != OpRestart {
		t.Errorf("sortedEvents order wrong: %v", sorted)
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("seed=7, drop=0.25,dup=0.1,reorder=0.05,delay=3ms,crash=1@2+3,partition=0@1+4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 {
		t.Errorf("seed = %d, want 7", s.Seed)
	}
	want := transport.FaultConfig{DropProb: 0.25, DupProb: 0.1, ReorderProb: 0.05, MaxDelay: 3 * time.Millisecond}
	if s.Links != want {
		t.Errorf("links = %+v, want %+v", s.Links, want)
	}
	wantEvents := []Event{
		{Sweep: 2, SBS: 1, Op: OpCrash},
		{Sweep: 5, SBS: 1, Op: OpRestart},
		{Sweep: 1, SBS: 0, Op: OpPartition, Phases: 4},
	}
	if len(s.Events) != len(wantEvents) {
		t.Fatalf("events = %v, want %v", s.Events, wantEvents)
	}
	for i := range wantEvents {
		if s.Events[i] != wantEvents[i] {
			t.Errorf("event %d = %+v, want %+v", i, s.Events[i], wantEvents[i])
		}
	}
	if s, err := ParseSpec(""); err != nil || len(s.Events) != 0 {
		t.Errorf("empty spec: %v, %v", s, err)
	}
	for _, bad := range []string{
		"bogus=1", "drop=1.5", "drop", "crash=1", "crash=x@2", "crash=1@y",
		"crash=1@2+0", "partition=0@1+-2", "delay=3parsecs", "seed=abc",
		"seed=1,drop=NaN", "linkfault=0@1:reorder=NaN",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

// TestCrashRestartCycleExactStats injects a crash and a restart on clean
// links and asserts the BS's fault accounting matches the schedule
// exactly: two misses (the BS quarantines after two), one quarantine
// span, QuarantineSweeps skipped phases, a successful probe and a rejoin.
func TestCrashRestartCycleExactStats(t *testing.T) {
	inst := testInstance(11, 3, 6, 8)
	cfg := Config{
		BS: sim.BSConfig{
			PhaseTimeout:     400 * time.Millisecond,
			AnnounceRetries:  -1, // clean links: keep Retries at 0 for exact stats
			QuarantineSweeps: 2,
			MaxSweeps:        30,
		},
		Sub: core.DefaultSubproblemConfig(),
		Schedule: Schedule{
			Seed: 5,
			Events: []Event{
				{Sweep: 1, SBS: 1, Op: OpCrash},
				{Sweep: 4, SBS: 1, Op: OpRestart},
			},
		},
	}
	start := time.Now()
	res, report, err := Run(testCtx(t), inst, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("run did not converge")
	}
	// The cycle is: misses at sweeps 1 and 2 (quarantine), skip sweeps
	// 3-4, probe at sweep 5 answered by the agent restarted at sweep 4.
	// The run must have reached at least sweep 5 for the rejoin to happen
	// at all.
	if res.Sweeps < 6 {
		t.Errorf("run ended after %d sweeps, before the rejoin cycle completed", res.Sweeps)
	}
	want := core.SBSFaultStats{Misses: 2, QuarantineSpans: 1, SkippedPhases: 2}
	if res.Faults[1] != want {
		t.Errorf("SBS 1 fault stats = %+v, want %+v", res.Faults[1], want)
	}
	for _, n := range []int{0, 2} {
		if res.Faults[n] != (core.SBSFaultStats{}) {
			t.Errorf("healthy SBS %d has fault stats %+v", n, res.Faults[n])
		}
	}
	if len(report.Fired) != 2 || len(report.Unfired) != 0 {
		t.Errorf("fired %d unfired %d events, want 2/0: %v %v",
			len(report.Fired), len(report.Unfired), report.Fired, report.Unfired)
	}
	for kind, wantCount := range map[sim.EventKind]int{
		sim.EventUploadTimeout: 2,
		sim.EventQuarantine:    1,
		sim.EventRejoin:        1,
		sim.EventProbeFailed:   0,
		sim.EventAnnounceRetry: 0,
	} {
		if got := report.Counter.Count(kind); got != wantCount {
			t.Errorf("counter[%v] = %d, want %d", kind, got, wantCount)
		}
	}
	// Only the two misses burn a PhaseTimeout; everything else is fast.
	if elapsed > 2*cfg.BS.PhaseTimeout+5*time.Second {
		t.Errorf("run took %v; quarantine did not bound the stall", elapsed)
	}
	// The crashed SBS rejoined with its policy intact, so the run must
	// end at the same fixed point as the fault-free baseline.
	base := faultFreeBaseline(t, inst)
	if diff := relDiff(res.Solution.Cost.Total, base.Solution.Cost.Total); diff > 0.05 {
		t.Errorf("final cost %v is %.1f%% from fault-free %v",
			res.Solution.Cost.Total, diff*100, base.Solution.Cost.Total)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible solution:\n%s", model.FormatViolations(vs))
	}
}

// TestDuplicateStormIsInvisible duplicates every message on every link and
// compares the run against the same schedule without duplication. The
// transport dedups nothing, so every duplicate reaches an agent, and the
// protocol's (sweep, phase) identity must absorb it: a repeated announce
// is answered from the SBS's reply cache (no re-solve, no new LPPM noise
// draw), a repeated upload or state-sync ack is discarded or counted
// once, and a repeated state-sync resets the reply cache again before any
// later announce. The result must be bit-for-bit the clean run's.
func TestDuplicateStormIsInvisible(t *testing.T) {
	inst := testInstance(4, 3, 5, 6)
	crash := []Event{
		{Sweep: 1, Phase: 1, SBS: -1, Op: OpBSCrash},
		{Sweep: 2, SBS: -1, Op: OpBSRestart},
	}
	for _, tc := range []struct {
		name      string
		lppm      bool
		maxSweeps int
		events    []Event
	}{
		{name: "plain"},
		{name: "lppm", lppm: true, maxSweeps: 8},
		{name: "bscrash", events: crash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dup float64) (*core.RunResult, *Report, []*core.NoiseSource) {
				noise := make([]*core.NoiseSource, inst.N)
				cfg := Config{
					BS:  sim.BSConfig{PhaseTimeout: 5 * time.Second, MaxSweeps: tc.maxSweeps},
					Sub: core.DefaultSubproblemConfig(),
					Schedule: Schedule{
						Seed:   9,
						Links:  transport.FaultConfig{DupProb: dup},
						Events: tc.events,
					},
				}
				if tc.lppm {
					cfg.PrivacyFor = func(n int) *core.PrivacyConfig {
						noise[n] = core.NewNoiseSource(int64(100 + n))
						return &core.PrivacyConfig{Epsilon: 0.1, Delta: 0.5, Noise: noise[n]}
					}
				}
				res, report, err := Run(testCtx(t), inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(report.Unfired) != 0 {
					t.Fatalf("unfired events: %v", report.Unfired)
				}
				return res, report, noise
			}
			base, baseReport, baseNoise := run(0)
			res, report, noise := run(1)
			exactMatch(t, res, base)
			if got := res.TotalFaults(); got != (core.SBSFaultStats{}) {
				t.Errorf("duplication leaked into fault stats: %+v", got)
			}
			if tc.lppm {
				for n := range noise {
					_, got := noise[n].Pos()
					_, want := baseNoise[n].Pos()
					if got != want {
						t.Errorf("SBS %d drew %d noise values, want %d", n, got, want)
					}
				}
			}
			if tc.events == nil {
				// Every announce arrives twice and its copy is replayed:
				// an SBS reads the copy before its next announce, and
				// before the final MsgDone, which the runner lets it
				// reach instead of cancelling it.
				if got, want := report.Counter.Count(sim.EventReplayedUpload), res.Sweeps*inst.N; got != want {
					t.Errorf("replayed uploads = %d, want %d (sweeps × N)", got, want)
				}
				if got := baseReport.Counter.Count(sim.EventReplayedUpload); got != 0 {
					t.Errorf("clean run replayed %d uploads", got)
				}
			}
		})
	}
}

// TestPartitionHealsWithoutQuarantine cuts one SBS's link for three
// phases: exactly one miss, no quarantine (the partition heals before a
// second consecutive miss), and the run still converges.
func TestPartitionHealsWithoutQuarantine(t *testing.T) {
	inst := testInstance(8, 3, 6, 8)
	cfg := Config{
		BS: sim.BSConfig{
			PhaseTimeout:    300 * time.Millisecond,
			AnnounceRetries: -1,
			MaxSweeps:       30,
		},
		Sub: core.DefaultSubproblemConfig(),
		Schedule: Schedule{
			Seed: 3,
			Events: []Event{
				{Sweep: 1, Phase: 0, SBS: 0, Op: OpPartition, Phases: 3},
			},
		},
	}
	res, report, err := Run(testCtx(t), inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("run did not converge after the partition healed")
	}
	want := core.SBSFaultStats{Misses: 1}
	if res.Faults[0] != want {
		t.Errorf("SBS 0 fault stats = %+v, want %+v", res.Faults[0], want)
	}
	// The auto-scheduled heal must have fired.
	var healed bool
	for _, f := range report.Fired {
		if f.Op == OpHeal && f.SBS == 0 {
			healed = true
		}
	}
	if !healed {
		t.Errorf("heal event never fired: %v", report.Fired)
	}
	base := faultFreeBaseline(t, inst)
	if diff := relDiff(res.Solution.Cost.Total, base.Solution.Cost.Total); diff > 0.05 {
		t.Errorf("final cost %v is %.1f%% from fault-free %v",
			res.Solution.Cost.Total, diff*100, base.Solution.Cost.Total)
	}
}

// TestChaosAcceptance is the issue's acceptance scenario: one SBS crashed
// for three sweeps and then restarted, with 30% packet loss on every
// link. The run must converge without stalling more than roughly one
// PhaseTimeout per observed miss, end within 5% of the fault-free cost,
// and report fault stats consistent with the injected schedule.
func TestChaosAcceptance(t *testing.T) {
	inst := testInstance(42, 3, 6, 8)
	bs := sim.BSConfig{
		PhaseTimeout:     800 * time.Millisecond,
		AnnounceRetries:  5, // sub-window ~133ms; miss prob ~0.51^6 per phase
		QuarantineSweeps: 2,
		MaxSweeps:        40,
	}
	cfg := Config{
		BS:  bs,
		Sub: core.DefaultSubproblemConfig(),
		Schedule: Schedule{
			Seed:  7,
			Links: transport.FaultConfig{DropProb: 0.3},
			Events: []Event{
				{Sweep: 1, SBS: 1, Op: OpCrash},
				{Sweep: 4, SBS: 1, Op: OpRestart},
			},
		},
	}
	start := time.Now()
	res, report, err := Run(testCtx(t), inst, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("run did not converge (sweeps=%d, faults=%+v)", res.Sweeps, res.TotalFaults())
	}

	// Stats must reflect the schedule: the crashed SBS accumulated the
	// two misses that led to quarantine and at least one quarantine span.
	crashed := res.Faults[1]
	if crashed.Misses < 2 {
		t.Errorf("crashed SBS misses = %d, want >= 2", crashed.Misses)
	}
	if crashed.QuarantineSpans < 1 || crashed.SkippedPhases < 1 {
		t.Errorf("crashed SBS never quarantined/skipped: %+v", crashed)
	}
	if len(report.Unfired) != 0 {
		t.Errorf("schedule events never fired: %v", report.Unfired)
	}

	// Stall bound: every miss burns at most one PhaseTimeout and every
	// failed probe an eighth of one; everything else (skipped phases,
	// live phases, retransmits) must be fast. The slack covers solver and
	// scheduling overhead across all sweeps.
	total := res.TotalFaults()
	budget := time.Duration(total.Misses)*bs.PhaseTimeout +
		time.Duration(total.FailedProbes)*bs.PhaseTimeout/8 + 5*time.Second
	if elapsed > budget {
		t.Errorf("run took %v, budget %v (faults %+v)", elapsed, budget, total)
	}

	// BS-side event counts and RunResult stats are two views of the same
	// accounting and must agree.
	if got := report.Counter.Count(sim.EventUploadTimeout); got != total.Misses {
		t.Errorf("counter misses = %d, stats = %d", got, total.Misses)
	}
	if got := report.Counter.Count(sim.EventQuarantine); got != total.QuarantineSpans {
		t.Errorf("counter quarantines = %d, stats = %d", got, total.QuarantineSpans)
	}
	if got := report.Counter.Count(sim.EventAnnounceRetry); got != total.Retries {
		t.Errorf("counter retries = %d, stats = %d", got, total.Retries)
	}

	base := faultFreeBaseline(t, inst)
	if diff := relDiff(res.Solution.Cost.Total, base.Solution.Cost.Total); diff > 0.05 {
		t.Errorf("final cost %v is %.1f%% from fault-free %v",
			res.Solution.Cost.Total, diff*100, base.Solution.Cost.Total)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible solution:\n%s", model.FormatViolations(vs))
	}
}

// TestRunFromSpec drives a run straight from a -chaos spec string.
func TestRunFromSpec(t *testing.T) {
	sched, err := ParseSpec("seed=3,dup=0.5,partition=2@1+3")
	if err != nil {
		t.Fatal(err)
	}
	inst := testInstance(6, 3, 5, 6)
	cfg := Config{
		BS: sim.BSConfig{
			PhaseTimeout: 300 * time.Millisecond,
			MaxSweeps:    30,
		},
		Sub:      core.DefaultSubproblemConfig(),
		Schedule: sched,
	}
	res, report, err := Run(testCtx(t), inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("run did not converge")
	}
	if len(report.Unfired) != 0 {
		t.Errorf("unfired events: %v", report.Unfired)
	}
	if vs := model.CheckFeasibility(inst, res.Solution.Caching, res.Solution.Routing); len(vs) != 0 {
		t.Fatalf("infeasible solution:\n%s", model.FormatViolations(vs))
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}
