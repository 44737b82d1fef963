package chaos

import (
	"reflect"
	"testing"
	"time"
)

// TestRandomScheduleDeterministic pins the generator contract soak relies
// on: the same (seed, N) names the same schedule forever.
func TestRandomScheduleDeterministic(t *testing.T) {
	a, err := RandomSchedule(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSchedule(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	if a.Seed != 42 {
		t.Fatalf("schedule seed %d, want the generator seed 42", a.Seed)
	}
}

// TestRandomScheduleAlwaysValid sweeps many seeds and asserts every draw
// validates, passes the spec conflict rules, stays inside the sweep
// budget, pairs every crash with a restart, and round-trips through
// Spec()/ParseSpec — the full set of structural guarantees the generator
// documents.
func TestRandomScheduleAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		const n = 4
		s, err := RandomSchedule(seed, n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(n); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		if err := checkSpecConflicts(s.Events); err != nil {
			t.Fatalf("seed %d: generated schedule conflicts: %v", seed, err)
		}
		crashes := map[int]int{}
		for _, ev := range s.Events {
			if ev.Sweep < 1 || ev.Sweep > scheduleMaxSweep {
				t.Fatalf("seed %d: event %v outside sweep budget [1, %d]", seed, ev, scheduleMaxSweep)
			}
			switch ev.Op {
			case OpCrash, OpBSCrash:
				crashes[ev.SBS]++
			case OpRestart, OpBSRestart:
				crashes[ev.SBS]--
			}
		}
		for sbs, n := range crashes {
			if n != 0 {
				t.Fatalf("seed %d: target %d has %d unpaired crash(es):\n%s", seed, sbs, n, s.Spec())
			}
		}
		rendered := s.Spec()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("seed %d: generated schedule does not re-parse: %v\nspec: %s", seed, err, rendered)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("seed %d: round trip changed generated schedule:\nspec:   %s\nbefore: %+v\nafter:  %+v", seed, rendered, s, again)
		}
	}
}

// TestRandomScheduleRejectsBadConfig covers the generators' input
// validation: no SBS to target, no cells, or a malformed cell.
func TestRandomScheduleRejectsBadConfig(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := RandomSchedule(1, n); err == nil {
			t.Errorf("N=%d: expected error", n)
		}
	}
	for _, cells := range [][]ProcCell{nil, {{Name: "", SBSs: 1}}, {{Name: "c", SBSs: -1}}} {
		if _, err := RandomProcSchedule(1, cells); err == nil {
			t.Errorf("cells %+v: expected error", cells)
		}
	}
}

// TestRandomProcScheduleAlwaysValid is the proc-schedule analogue of
// TestRandomScheduleAlwaysValid: every draw validates against the cluster
// shape, obeys the one-kill/one-spawn-delay-per-target caps, and
// round-trips through Spec()/ParseProcSpec.
func TestRandomProcScheduleAlwaysValid(t *testing.T) {
	cells := []ProcCell{{Name: "cell-0", SBSs: 3}, {Name: "cell-1", SBSs: 2}}
	lookup := func(name string) int {
		for _, c := range cells {
			if c.Name == name {
				return c.SBSs
			}
		}
		return -1
	}
	for seed := int64(0); seed < 200; seed++ {
		s, err := RandomProcSchedule(seed, cells)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(lookup); err != nil {
			t.Fatalf("seed %d: generated proc schedule invalid: %v", seed, err)
		}
		kills := map[string]int{}
		delays := map[string]int{}
		for _, ev := range s.Events {
			switch ev.Op {
			case ProcKill:
				kills[ev.target()]++
			case ProcSpawnDelay:
				delays[ev.target()]++
			}
		}
		for target, n := range kills {
			if n > 1 {
				t.Fatalf("seed %d: target %s killed %d times", seed, target, n)
			}
		}
		for target, n := range delays {
			if n > 1 {
				t.Fatalf("seed %d: target %s has %d spawn delays", seed, target, n)
			}
		}
		rendered := s.Spec()
		again, err := ParseProcSpec(rendered)
		if err != nil {
			t.Fatalf("seed %d: generated proc schedule does not re-parse: %v\nspec: %s", seed, err, rendered)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("seed %d: round trip changed generated proc schedule:\nspec: %s", seed, rendered)
		}
	}
}

// TestRandomProcScheduleStopBudget checks, across seeds, that every stop
// window respects procMaxStop and every spawn delay procMaxSpawnDelay,
// and that the default mix draws both often enough for the caps to be
// exercised.
func TestRandomProcScheduleStopBudget(t *testing.T) {
	stops, spawns := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		s, err := RandomProcSchedule(seed, []ProcCell{{Name: "c", SBSs: 2}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ev := range s.Events {
			switch ev.Op {
			case ProcStop:
				stops++
				if ev.Delay < 30*time.Millisecond || ev.Delay > procMaxStop {
					t.Fatalf("seed %d: stop delay %v outside [30ms, %v]", seed, ev.Delay, procMaxStop)
				}
			case ProcSpawnDelay:
				spawns++
				if ev.Delay < 10*time.Millisecond || ev.Delay > procMaxSpawnDelay {
					t.Fatalf("seed %d: spawn delay %v outside [10ms, %v]", seed, ev.Delay, procMaxSpawnDelay)
				}
			}
		}
	}
	if stops < 50 || spawns < 20 {
		t.Errorf("default mix drew %d stops and %d spawn delays over 200 seeds; the caps are barely exercised", stops, spawns)
	}
}
