package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"edgecache/internal/transport"
)

// This file generates randomized fault schedules: seeded, weighted draws
// over the same operations the hand-written -chaos/-proc-chaos specs can
// express, always emitting conflict-free schedules (the per-target
// strictly-increasing protocol-time discipline ParseSpec/ParseProcSpec
// enforce). Every generated schedule round-trips through Spec() and back,
// so a failing soak episode is reproducible as a plain spec string.
//
// The generators never use wall-clock time or global randomness, and their
// budgets, weights and intensity are the constants below: the seed and the
// shape (SBS count or cluster cells) name one schedule forever.

// RandomSchedule's generation constants.
const (
	// scheduleMaxSweep bounds the trigger sweeps: every generated event
	// lands in sweeps [1, scheduleMaxSweep] so it has a chance to fire
	// before convergence.
	scheduleMaxSweep = 6
	// scheduleEvents is the fault-episode budget: how many weighted draws
	// are attempted (a draw whose target has no remaining sweep room is
	// skipped, so the emitted schedule may be shorter).
	scheduleEvents = 4
	// scheduleIntensity scales the baseline and window fault
	// probabilities (an intensity of 1 can reach 30% drop, the
	// acceptance-test ceiling the protocol is known to survive).
	scheduleIntensity = 0.5
	// The per-draw operation weights: a crash/restart cycle on one SBS,
	// a self-healing partition on one SBS, a transient
	// drop/dup/reorder/delay window on one SBS's link or on every link,
	// and a coordinator crash with a queued recovery restart (the runner
	// auto-installs an in-memory checkpoint store).
	weightCrash     = 4.0
	weightPartition = 3.0
	weightLinkFault = 2.0
	weightBSCrash   = 1.0
)

// RandomSchedule draws one seeded, conflict-free fault schedule for n SBSs.
// The same (seed, n) always yields the same schedule, the result always
// passes Validate(n) plus the spec conflict rules, and Spec() renders it as a
// -chaos string that re-parses to the identical schedule.
//
// Structural guarantees, chosen so the soak invariants stay meaningful:
// every crash is paired with a restart and every partition self-heals
// (an unfired restart only happens when the run converges first, which
// the invariant checker accounts for), and link-fault windows are later
// restored to the baseline configuration.
func RandomSchedule(seed int64, n int) (Schedule, error) {
	if n < 1 {
		return Schedule{}, fmt.Errorf("chaos: random schedule: need at least one SBS, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}

	// Baseline link faults, scaled by intensity; roughly half of all
	// schedules start on clean links so the fault-free fast path stays in
	// the soak mix too.
	if rng.Float64() < 0.6 {
		s.Links = randomFaults(rng)
	}

	// nextFree[t] is the first sweep target t may schedule at; index n is
	// the coordinator/all-links target (-1). Slices, not maps: this
	// package is in the determinism analyzer's scope and the draw order
	// must be reproducible.
	nextFree := make([]int, n+1)
	for i := range nextFree {
		nextFree[i] = 1
	}
	targetIdx := func(sbs int) int {
		if sbs == -1 {
			return n
		}
		return sbs
	}

	const total = weightCrash + weightPartition + weightLinkFault + weightBSCrash
	for draw := 0; draw < scheduleEvents; draw++ {
		pick := rng.Float64() * total
		switch {
		case pick < weightCrash:
			sbs := rng.Intn(n)
			at := nextFree[sbs]
			dur := 1 + rng.Intn(2)
			if at+dur > scheduleMaxSweep {
				continue // no room left for the full crash/restart cycle
			}
			at += rng.Intn(scheduleMaxSweep - at - dur + 1)
			s.Events = append(s.Events,
				Event{Sweep: at, SBS: sbs, Op: OpCrash},
				Event{Sweep: at + dur, SBS: sbs, Op: OpRestart})
			nextFree[sbs] = at + dur + 1
		case pick < weightCrash+weightPartition:
			sbs := rng.Intn(n)
			at := nextFree[sbs]
			if at > scheduleMaxSweep {
				continue
			}
			at += rng.Intn(scheduleMaxSweep - at + 1)
			phases := 1 + rng.Intn(2*n)
			s.Events = append(s.Events,
				Event{Sweep: at, SBS: sbs, Op: OpPartition, Phases: phases})
			// The auto-scheduled heal lands phases later; keep the
			// target free past it so a follow-up crash cannot collide.
			nextFree[sbs] = at + (phases+n-1)/n + 1
		case pick < weightCrash+weightPartition+weightLinkFault:
			// Half the windows hit one link, half every link; the
			// all-links target shares the coordinator's conflict slot.
			sbs := -1
			if rng.Float64() < 0.5 {
				sbs = rng.Intn(n)
			}
			ti := targetIdx(sbs)
			at := nextFree[ti]
			dur := 1 + rng.Intn(2)
			if at+dur > scheduleMaxSweep {
				continue
			}
			at += rng.Intn(scheduleMaxSweep - at - dur + 1)
			s.Events = append(s.Events,
				Event{Sweep: at, SBS: sbs, Op: OpLinkFaults, Faults: randomFaults(rng)},
				Event{Sweep: at + dur, SBS: sbs, Op: OpLinkFaults, Faults: s.Links})
			nextFree[ti] = at + dur + 1
		default:
			ti := targetIdx(-1)
			at := nextFree[ti]
			dur := 1 + rng.Intn(2)
			if at+dur > scheduleMaxSweep {
				continue
			}
			at += rng.Intn(scheduleMaxSweep - at - dur + 1)
			s.Events = append(s.Events,
				Event{Sweep: at, SBS: -1, Op: OpBSCrash},
				Event{Sweep: at + dur, SBS: -1, Op: OpBSRestart})
			nextFree[ti] = at + dur + 1
		}
	}

	// Written order = trigger order: a stable sort keeps each target's
	// events (already strictly increasing by construction) in order, so
	// the schedule satisfies the spec conflict rules and Spec() re-parses.
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].Sweep != s.Events[j].Sweep {
			return s.Events[i].Sweep < s.Events[j].Sweep
		}
		return s.Events[i].Phase < s.Events[j].Phase
	})
	if err := s.Validate(n); err != nil {
		return Schedule{}, fmt.Errorf("chaos: random schedule (seed %d): %w", seed, err)
	}
	if err := checkSpecConflicts(s.Events); err != nil {
		return Schedule{}, fmt.Errorf("chaos: random schedule (seed %d): %w", seed, err)
	}
	return s, nil
}

// randomFaults draws one link fault configuration scaled by
// scheduleIntensity.
func randomFaults(rng *rand.Rand) transport.FaultConfig {
	fc := transport.FaultConfig{
		DropProb: roundProb(rng.Float64() * 0.3 * scheduleIntensity),
		DupProb:  roundProb(rng.Float64() * 0.3 * scheduleIntensity),
	}
	if rng.Float64() < 0.5 {
		fc.ReorderProb = roundProb(rng.Float64() * 0.2 * scheduleIntensity)
	}
	if rng.Float64() < 0.3 {
		fc.MaxDelay = time.Duration(1+rng.Intn(3)) * time.Millisecond
	}
	return fc
}

// roundProb quantizes a probability to 1e-3 so spec strings stay short;
// the quantized value round-trips bit-exactly through formatProb/ParseFloat.
func roundProb(p float64) float64 {
	return float64(int(p*1000)) / 1000
}

// RandomProcSchedule's generation constants.
const (
	// procMaxSweep bounds the trigger sweeps: cluster cells converge in
	// few sweeps, so late events would never fire.
	procMaxSweep = 4
	// procEvents is the draw budget.
	procEvents = 3
	// procMaxStop caps the SIGSTOP freeze duration: long enough to stall
	// protocol timeouts, short enough not to trip the heartbeat two-strike
	// kill on a loaded host.
	procMaxStop = 150 * time.Millisecond
	// procMaxSpawnDelay caps the spawn-delay launch attribute.
	procMaxSpawnDelay = 80 * time.Millisecond
	// The per-draw operation weights: a SIGKILL of a BS or SBS process at
	// a protocol sweep, a SIGSTOP/SIGCONT freeze window, and a per-target
	// (re)spawn launch delay.
	weightKill       = 3.0
	weightStop       = 2.0
	weightSpawnDelay = 1.0
)

// ProcCell names one cell a random process schedule may target.
type ProcCell struct {
	Name string
	SBSs int
}

// procTarget is one schedulable process position during generation.
type procTarget struct {
	cell string
	sbs  int // -1 = the cell's BS
	// nextFree is the first available trigger sweep; killed and delayed
	// cap each target at one kill (restart budgets are finite) and one
	// spawn delay (ParseProcSpec rejects duplicates).
	nextFree int
	killed   bool
	delayed  bool
}

// RandomProcSchedule draws one seeded, conflict-free process-fault
// schedule for the given cluster shape (cells in spec order). The same
// (seed, cells) always yields the same schedule, the result validates
// against the cell shapes and the ParseProcSpec conflict rules, and Spec()
// renders it as a -proc-chaos string that re-parses to the identical
// schedule. Each target receives at most one kill (supervisor restart
// budgets are finite) and at most one spawn delay.
func RandomProcSchedule(seed int64, cells []ProcCell) (ProcSchedule, error) {
	if len(cells) == 0 {
		return ProcSchedule{}, fmt.Errorf("chaos: random proc schedule: no cells")
	}
	var targets []*procTarget
	for _, c := range cells {
		if c.Name == "" || c.SBSs < 0 {
			return ProcSchedule{}, fmt.Errorf("chaos: random proc schedule: bad cell %+v", c)
		}
		targets = append(targets, &procTarget{cell: c.Name, sbs: -1, nextFree: 1})
		for sbs := 0; sbs < c.SBSs; sbs++ {
			targets = append(targets, &procTarget{cell: c.Name, sbs: sbs, nextFree: 1})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	const total = weightKill + weightStop + weightSpawnDelay

	var timed, delays []ProcEvent
	for draw := 0; draw < procEvents; draw++ {
		t := targets[rng.Intn(len(targets))]
		pick := rng.Float64() * total
		switch {
		case pick < weightKill:
			if t.killed || t.nextFree > procMaxSweep {
				continue
			}
			at := t.nextFree + rng.Intn(procMaxSweep-t.nextFree+1)
			timed = append(timed, ProcEvent{Cell: t.cell, SBS: t.sbs, Op: ProcKill, Sweep: at})
			t.killed = true
			t.nextFree = at + 1
		case pick < weightKill+weightStop:
			if t.nextFree > procMaxSweep {
				continue
			}
			at := t.nextFree + rng.Intn(procMaxSweep-t.nextFree+1)
			delay := randomDelay(rng, 30*time.Millisecond, procMaxStop)
			timed = append(timed, ProcEvent{Cell: t.cell, SBS: t.sbs, Op: ProcStop, Sweep: at, Delay: delay})
			t.nextFree = at + 1
		default:
			if t.delayed {
				continue
			}
			delay := randomDelay(rng, 10*time.Millisecond, procMaxSpawnDelay)
			delays = append(delays, ProcEvent{Cell: t.cell, SBS: t.sbs, Op: ProcSpawnDelay, Delay: delay})
			t.delayed = true
		}
	}

	// Spawn delays are launch attributes; list them first, then the timed
	// events in trigger order (stable, so each target's events keep their
	// strictly-increasing construction order).
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].Sweep < timed[j].Sweep })
	s := ProcSchedule{Events: append(delays, timed...)}
	sbss := func(name string) int {
		for _, c := range cells {
			if c.Name == name {
				return c.SBSs
			}
		}
		return -1
	}
	if err := s.Validate(sbss); err != nil {
		return ProcSchedule{}, fmt.Errorf("chaos: random proc schedule (seed %d): %w", seed, err)
	}
	if err := checkProcConflicts(s.Events); err != nil {
		return ProcSchedule{}, fmt.Errorf("chaos: random proc schedule (seed %d): %w", seed, err)
	}
	return s, nil
}

// randomDelay draws a duration in [min, max] at millisecond granularity
// (so spec strings stay short and round-trip exactly).
func randomDelay(rng *rand.Rand, min, max time.Duration) time.Duration {
	ms := int64(min/time.Millisecond) + rng.Int63n(int64(max/time.Millisecond)-int64(min/time.Millisecond)+1)
	return time.Duration(ms) * time.Millisecond
}
