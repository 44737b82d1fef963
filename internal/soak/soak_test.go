package soak

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgecache/internal/chaos"
	"edgecache/internal/cluster"
)

// TestMain doubles as the cluster agent binary, exactly like the cluster
// package's own suite: the soak's supervised episodes launch this test
// executable with "-role ..." as the first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		if err := cluster.AgentMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "agent:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestSoakCleanPass runs a small soak — disk drills included — and expects
// every invariant to hold: the generator only emits schedules the tuned
// protocol is designed to survive, so a failure here is a real regression
// in either the protocol or the harness.
func TestSoakCleanPass(t *testing.T) {
	res, err := Run(testCtx(t), Config{
		Episodes:   2,
		Seed:       1,
		DiskFaults: true,
		ReproDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("soak failed: %+v (repro %s)", res.Failure.Violations, res.Failure.ReproPath)
	}
	if res.Episodes != 2 {
		t.Errorf("episodes passed = %d, want 2", res.Episodes)
	}
}

// linkFaultSeed finds a base seed whose FIRST episode schedule contains a
// link-fault event, replicating the runner's derivation (episode 0's
// schedule seed is the base seed itself, on the default 3-SBS scenario).
// Deterministic: the generator is a pure function of the seed.
func linkFaultSeed(t *testing.T) int64 {
	t.Helper()
	for seed := int64(1); seed <= 200; seed++ {
		sched, err := chaos.RandomSchedule(seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range sched.Events {
			if ev.Op == chaos.OpLinkFaults {
				return seed
			}
		}
	}
	t.Fatal("no seed in [1,200] generates a link-fault event; generator weights changed?")
	return 0
}

// TestSoakInjectedInvariantShrinksAndReproduces is the harness acceptance:
// a deliberately broken invariant ("any schedule containing a link fault
// fails") must produce a ddmin-minimized repro — a single link-fault event
// — whose file re-parses and re-triggers the same invariant on replay.
func TestSoakInjectedInvariantShrinksAndReproduces(t *testing.T) {
	seed := linkFaultSeed(t)
	reproDir := t.TempDir()
	injected := func(ep *Episode) []Violation {
		for _, ev := range ep.Schedule.Events {
			if ev.Op == chaos.OpLinkFaults {
				return []Violation{{"injected", fmt.Sprintf("schedule contains link fault %s", ev)}}
			}
		}
		return nil
	}
	res, err := Run(testCtx(t), Config{
		Episodes:     1,
		Seed:         seed,
		ReproDir:     reproDir,
		CheckEpisode: injected,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("injected invariant did not fail the soak")
	}
	f := res.Failure
	if len(f.Violations) == 0 || f.Violations[0].Invariant != "injected" {
		t.Fatalf("violations = %+v, want the injected invariant", f.Violations)
	}

	// ddmin must strip every event except one link fault: any subset
	// containing a link fault is interesting, so the 1-minimal result is
	// a single event.
	if len(f.Minimized.Events) != 1 || f.Minimized.Events[0].Op != chaos.OpLinkFaults {
		t.Fatalf("minimized = %s (%d events), want exactly one link fault",
			f.Minimized.Spec(), len(f.Minimized.Events))
	}
	if len(f.Schedule.Events) <= 1 {
		t.Fatalf("original schedule had %d events; the shrink proved nothing", len(f.Schedule.Events))
	}
	if f.ShrinkRuns == 0 || f.ShrinkRuns > shrinkRuns {
		t.Errorf("shrink runs = %d, want in (0, %d]", f.ShrinkRuns, shrinkRuns)
	}

	// The repro file must exist, re-parse, and carry the minimized spec.
	if filepath.Dir(f.ReproPath) != reproDir {
		t.Errorf("repro written to %s, want dir %s", f.ReproPath, reproDir)
	}
	repro, err := ParseReproFile(f.ReproPath)
	if err != nil {
		t.Fatalf("repro does not re-parse: %v", err)
	}
	if repro.Spec != f.Minimized.Spec() {
		t.Errorf("repro spec %q != minimized %q", repro.Spec, f.Minimized.Spec())
	}
	if len(repro.Invariants) != 1 || repro.Invariants[0] != "injected" {
		t.Errorf("repro invariants = %v, want [injected]", repro.Invariants)
	}

	// Replaying the repro re-triggers the same invariant, deterministically.
	for round := 0; round < 2; round++ {
		violations, err := ReplayRepro(testCtx(t), Config{CheckEpisode: injected}, repro)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range violations {
			if v.Invariant == "injected" {
				found = true
			}
		}
		if !found {
			t.Fatalf("replay %d: violations = %v, injected invariant did not re-trigger", round, violations)
		}
	}
}

// TestSoakDeterministic pins that the same seed replays the same episode
// schedules: two runs observe identical specs through the episode hook.
func TestSoakDeterministic(t *testing.T) {
	specs := func() []string {
		var out []string
		_, err := Run(testCtx(t), Config{
			Episodes: 2,
			Seed:     42,
			ReproDir: t.TempDir(),
			CheckEpisode: func(ep *Episode) []Violation {
				out = append(out, ep.Schedule.Spec())
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := specs(), specs()
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Errorf("schedules diverged across identical runs:\n%v\n%v", a, b)
	}
}

// TestSoakClusterRequiresCommand pins the fast-fail for a cluster soak
// with no agent binary configured.
func TestSoakClusterRequiresCommand(t *testing.T) {
	_, err := Run(testCtx(t), Config{ClusterEpisodes: 1})
	if err == nil || !strings.Contains(err.Error(), "Command") {
		t.Fatalf("err = %v, want the Command requirement", err)
	}
}

// TestSoakClusterEpisodeSmoke runs one supervised multi-process episode
// under a randomized process-fault schedule.
func TestSoakClusterEpisodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test; skipped in -short")
	}
	res, err := Run(testCtx(t), Config{
		Episodes:        1,
		Seed:            7,
		ClusterEpisodes: 1,
		Command:         []string{os.Args[0]},
		ReproDir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("cluster soak failed: %+v (repro %s)", res.Failure.Violations, res.Failure.ReproPath)
	}
	if res.ClusterEpisodes != 1 {
		t.Errorf("cluster episodes passed = %d, want 1", res.ClusterEpisodes)
	}
}
