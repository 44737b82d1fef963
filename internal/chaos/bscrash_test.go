package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/sim"
)

// exactMatch asserts the chaos run reproduced the fault-free trajectory
// bit-for-bit: same history, same final cost, same policies.
func exactMatch(t *testing.T, got, want *core.RunResult) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("history length %d, want %d (histories %v vs %v)",
			len(got.History), len(want.History), got.History, want.History)
	}
	for i := range got.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
			t.Fatalf("history[%d] = %v, want %v (bit difference)", i, got.History[i], want.History[i])
		}
	}
	if got.Converged != want.Converged || got.Sweeps != want.Sweeps {
		t.Fatalf("converged/sweeps = %v/%d, want %v/%d", got.Converged, got.Sweeps, want.Converged, want.Sweeps)
	}
	if math.Float64bits(got.Solution.Cost.Total) != math.Float64bits(want.Solution.Cost.Total) {
		t.Fatalf("final cost %v, want %v", got.Solution.Cost.Total, want.Solution.Cost.Total)
	}
	if got.Solution.Caching.DiffCount(want.Solution.Caching) != 0 {
		t.Fatal("final caching policy differs")
	}
}

// TestBSCrashResumeExact is the tentpole acceptance check at the chaos
// layer: kill the coordinator mid-run on clean links, let the runner
// recover it from its newest sweep-boundary checkpoint, and the completed
// run is bit-identical to one that never crashed.
func TestBSCrashResumeExact(t *testing.T) {
	// This instance takes 4 sweeps to converge, so the sweep-2 announce
	// (the crash trigger point) is always reached and two more sweeps run
	// after recovery.
	inst := testInstance(16, 8, 12, 16)
	base := faultFreeBaseline(t, inst)
	if base.Sweeps < 3 {
		t.Fatalf("baseline converged in %d sweeps; the crash point would never be reached", base.Sweeps)
	}

	sched, err := ParseSpec("bscrash=2+1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		BS:       sim.BSConfig{}, // Checkpoint nil: the runner must self-install a store
		Sub:      core.DefaultSubproblemConfig(),
		Schedule: sched,
	}
	res, report, err := Run(testCtx(t), inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exactMatch(t, res, base)

	if len(report.Unfired) != 0 {
		t.Errorf("unfired events: %v", report.Unfired)
	}
	var sawCrash, sawRestart bool
	for _, ev := range report.Fired {
		switch ev.Op {
		case OpBSCrash:
			sawCrash = true
			if ev.AtSweep != 2 {
				t.Errorf("bs-crash fired at sweep %d, want 2", ev.AtSweep)
			}
		case OpBSRestart:
			sawRestart = true
			if ev.AtSweep != 2 {
				t.Errorf("bs-restart resumed at sweep %d, want checkpoint boundary 2", ev.AtSweep)
			}
		}
	}
	if !sawCrash || !sawRestart {
		t.Fatalf("fired events missing crash/restart: %v", report.Fired)
	}
	// The recovery handshake must have rehydrated every SBS exactly once.
	if got := report.Counter.Count(sim.EventStateSync); got != inst.N {
		t.Errorf("state-sync events = %d, want %d", got, inst.N)
	}
	if got := report.Counter.Count(sim.EventStateSyncMiss); got != 0 {
		t.Errorf("state-sync misses on clean links = %d, want 0", got)
	}
}

// TestBSCrashUnderLoss combines a coordinator crash with 30% message loss:
// the run must still recover from its checkpoint, converge, and land
// within 5% of the fault-free cost.
func TestBSCrashUnderLoss(t *testing.T) {
	inst := testInstance(42, 3, 6, 8)
	store := model.NewMemCheckpointStore()
	sched, err := ParseSpec("seed=7,drop=0.3,bscrash=1+1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		BS: sim.BSConfig{
			PhaseTimeout:    800 * time.Millisecond,
			AnnounceRetries: 5,
			MaxSweeps:       40,
			Checkpoint:      &core.CheckpointConfig{Sink: store},
		},
		Sub:      core.DefaultSubproblemConfig(),
		Schedule: sched,
	}
	res, report, err := Run(testCtx(t), inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("run did not converge (sweeps=%d, faults=%+v)", res.Sweeps, res.TotalFaults())
	}
	if len(report.Unfired) != 0 {
		t.Errorf("unfired events: %v", report.Unfired)
	}
	if store.Len() == 0 {
		t.Error("no checkpoints captured")
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

// TestBSCrashNoRestart: a crash with no scheduled recovery is a hard stop,
// reported as an error rather than a silent partial result.
func TestBSCrashNoRestart(t *testing.T) {
	inst := testInstance(1, 3, 5, 6)
	sched, err := ParseSpec("bscrash=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		BS:       sim.BSConfig{},
		Sub:      core.DefaultSubproblemConfig(),
		Schedule: sched,
	}
	_, _, err = Run(testCtx(t), inst, cfg)
	if err == nil || !strings.Contains(err.Error(), "no scheduled restart") {
		t.Fatalf("crash without restart: got %v", err)
	}
}

func TestParseSpecBSCrash(t *testing.T) {
	sched, err := ParseSpec("bscrash=2+1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Sweep: 2, SBS: -1, Op: OpBSCrash},
		{Sweep: 3, SBS: -1, Op: OpBSRestart},
	}
	if len(sched.Events) != len(want) {
		t.Fatalf("events = %v, want %v", sched.Events, want)
	}
	for i, ev := range sched.Events {
		if ev != want[i] {
			t.Errorf("event[%d] = %+v, want %+v", i, ev, want[i])
		}
	}

	sched, err = ParseSpec("bsrestart=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 1 || sched.Events[0] != (Event{Sweep: 5, SBS: -1, Op: OpBSRestart}) {
		t.Fatalf("events = %v", sched.Events)
	}

	for _, bad := range []string{"bscrash=", "bscrash=a", "bscrash=2+0", "bscrash=2+-1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("%q: want parse error", bad)
		}
	}

	// BS-level ops carry no SBS target; a stray one must not validate.
	badSched := Schedule{Events: []Event{{Sweep: 1, SBS: 0, Op: OpBSCrash}}}
	if err := badSched.Validate(3); err == nil {
		t.Error("bs-crash with an SBS target: want validation error")
	}
	okSched := Schedule{Events: []Event{{Sweep: 1, SBS: -1, Op: OpBSCrash}, {Sweep: 2, SBS: -1, Op: OpBSRestart}}}
	if err := okSched.Validate(3); err != nil {
		t.Errorf("valid bs schedule rejected: %v", err)
	}

	if got := OpBSCrash.String(); got != "bs-crash" {
		t.Errorf("OpBSCrash = %q", got)
	}
	if got := OpBSRestart.String(); got != "bs-restart" {
		t.Errorf("OpBSRestart = %q", got)
	}
}
