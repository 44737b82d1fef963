package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds a Schedule from a compact comma-separated spec string,
// the format accepted by edgesim's -chaos flag:
//
//	seed=N          RNG seed for all link fault draws (default 1)
//	drop=P          baseline per-message drop probability on every link
//	dup=P           baseline duplication probability
//	reorder=P       baseline adjacent-swap reorder probability
//	delay=DUR       baseline max random extra delivery delay (e.g. 5ms)
//	crash=S@T[+K]   crash SBS S at trigger T; with +K, restart it K sweeps
//	                later (same phase)
//	restart=S@T     restart SBS S on its own (a no-op if S is alive)
//	partition=S@T[+D]  cut SBS S's link at T; with +D, heal it D phases
//	                   later (otherwise the cut is permanent)
//	heal=S@T        heal SBS S's partition on its own
//	linkfault=S@T[:k=v;...]  replace SBS S's link fault configuration at T
//	                (S = * targets every link); k ∈ drop,dup,reorder,delay;
//	                no pairs means clean links, e.g. "linkfault=*@3:drop=0.4;delay=2ms"
//	bscrash=T[+K]   crash the BS coordinator at T; with +K, schedule the
//	                recovery restart (the restart is consumed when the
//	                crash happens — protocol time is frozen while the BS is
//	                down, so K is nominal)
//	bsrestart=T     schedule a BS restart on its own (nominal trigger T)
//
// A trigger T is a sweep number "W", optionally phase-granular as "W.P"
// (fire when the BS announces phase P of sweep W).
//
// Example: "seed=7,drop=0.3,crash=1@2+3" drops 30% of all traffic and
// crashes SBS 1 for sweeps 2..4. "bscrash=2+1,drop=0.3" kills the BS at
// sweep 2 and resumes it from its newest checkpoint.
//
// Events for one target (one SBS, or the BS) must be written in strictly
// increasing protocol-time order, counting the events a directive
// auto-generates (crash=1@2+3 occupies sweeps 2 and 5 for SBS 1). A
// duplicate trigger point or a later directive that jumps back in time
// for the same target is rejected with a *SpecConflictError naming both
// events — the runner fires same-point events in written order, so such a
// spec silently shadows (crashing an already-crashed SBS is a no-op)
// instead of doing what was written.
//
// Schedule.Spec reverses this parse: any parsed (or generator-produced)
// schedule formats back to a string that re-parses to the same schedule,
// which is how soak repro lines stay replayable.
func ParseSpec(spec string) (Schedule, error) {
	s := Schedule{Seed: 1}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return Schedule{}, specItemError(spec, item, errors.New("want key=value"))
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			s.Links.DropProb, err = parseProb(val)
		case "dup":
			s.Links.DupProb, err = parseProb(val)
		case "reorder":
			s.Links.ReorderProb, err = parseProb(val)
		case "delay":
			s.Links.MaxDelay, err = parseDelay(val)
		case "crash":
			var sbs, sweep, phase, dur int
			sbs, sweep, phase, dur, err = parseTarget(val, true)
			if err != nil {
				break
			}
			s.Events = append(s.Events, Event{Sweep: sweep, Phase: phase, SBS: sbs, Op: OpCrash})
			if dur > 0 {
				s.Events = append(s.Events, Event{Sweep: sweep + dur, Phase: phase, SBS: sbs, Op: OpRestart})
			}
		case "restart":
			var sbs, sweep, phase int
			sbs, sweep, phase, _, err = parseTarget(val, false)
			if err != nil {
				break
			}
			s.Events = append(s.Events, Event{Sweep: sweep, Phase: phase, SBS: sbs, Op: OpRestart})
		case "partition":
			var sbs, sweep, phase, dur int
			sbs, sweep, phase, dur, err = parseTarget(val, true)
			if err != nil {
				break
			}
			s.Events = append(s.Events, Event{Sweep: sweep, Phase: phase, SBS: sbs, Op: OpPartition, Phases: dur})
		case "heal":
			var sbs, sweep, phase int
			sbs, sweep, phase, _, err = parseTarget(val, false)
			if err != nil {
				break
			}
			s.Events = append(s.Events, Event{Sweep: sweep, Phase: phase, SBS: sbs, Op: OpHeal})
		case "linkfault":
			var ev Event
			ev, err = parseLinkFault(val)
			if err != nil {
				break
			}
			s.Events = append(s.Events, ev)
		case "bscrash":
			var sweep, phase, dur int
			sweep, phase, dur, err = parseSweep(val, true)
			if err != nil {
				break
			}
			s.Events = append(s.Events, Event{Sweep: sweep, Phase: phase, SBS: -1, Op: OpBSCrash})
			if dur > 0 {
				s.Events = append(s.Events, Event{Sweep: sweep + dur, Phase: phase, SBS: -1, Op: OpBSRestart})
			}
		case "bsrestart":
			var sweep, phase int
			sweep, phase, _, err = parseSweep(val, false)
			if err != nil {
				break
			}
			s.Events = append(s.Events, Event{Sweep: sweep, Phase: phase, SBS: -1, Op: OpBSRestart})
		default:
			return Schedule{}, specItemError(spec, item, errors.New("unknown directive"))
		}
		if err != nil {
			return Schedule{}, specItemError(spec, item, err)
		}
	}
	if err := checkSpecConflicts(s.Events); err != nil {
		var conflict *SpecConflictError
		if errors.As(err, &conflict) {
			conflict.Spec = spec
		}
		return Schedule{}, err
	}
	return s, nil
}

// specItemError renders a parse failure with both the offending item and
// the complete spec string, so a failing repro line pasted from a soak
// report is self-diagnosing without hunting for its source.
func specItemError(spec, item string, err error) error {
	return fmt.Errorf("chaos: %q (in spec %q): %w", item, spec, err)
}

// SpecConflictError reports two spec events for the same target whose
// written order is not strictly increasing in protocol time. Prev is the
// earlier directive's event, Next the offending one (chaos.Event for
// ParseSpec, chaos.ProcEvent for ParseProcSpec); Duplicate distinguishes
// an identical trigger point from a jump backwards. Spec, when set, is
// the complete spec string the conflict was found in.
type SpecConflictError struct {
	Prev, Next fmt.Stringer
	Duplicate  bool
	Spec       string
}

// Error renders both conflicting events (and the full spec when known).
func (e *SpecConflictError) Error() string {
	var msg string
	if e.Duplicate {
		msg = fmt.Sprintf("chaos: duplicate trigger for one target: %q repeats the trigger point of earlier %q", e.Next, e.Prev)
	} else {
		msg = fmt.Sprintf("chaos: time-unordered events for one target: %q fires before earlier %q", e.Next, e.Prev)
	}
	if e.Spec != "" {
		msg += fmt.Sprintf(" (in spec %q)", e.Spec)
	}
	return msg
}

// checkSpecConflicts enforces the per-target ordering ParseSpec documents.
// Programmatic schedules are exempt (Schedule.Validate does not call this):
// there the caller controls firing order explicitly and overlapping plans
// can be intentional.
func checkSpecConflicts(events []Event) error {
	last := map[int]Event{}
	for _, ev := range events {
		if prev, ok := last[ev.SBS]; ok {
			if ev.Sweep == prev.Sweep && ev.Phase == prev.Phase {
				return &SpecConflictError{Prev: prev, Next: ev, Duplicate: true}
			}
			if ev.Sweep < prev.Sweep || (ev.Sweep == prev.Sweep && ev.Phase < prev.Phase) {
				return &SpecConflictError{Prev: prev, Next: ev}
			}
		}
		last[ev.SBS] = ev
	}
	return nil
}

// parseProb parses a probability in [0, 1].
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

// parseDelay parses a non-negative link delay duration.
func parseDelay(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative delay %v", d)
	}
	return d, nil
}

// parseTrigger parses a protocol-time trigger "W" or phase-granular "W.P".
func parseTrigger(tok string) (sweep, phase int, err error) {
	sweepStr, phaseStr, hasPhase := strings.Cut(tok, ".")
	if sweep, err = strconv.Atoi(sweepStr); err != nil {
		return 0, 0, err
	}
	if hasPhase {
		if phase, err = strconv.Atoi(phaseStr); err != nil {
			return 0, 0, err
		}
		if phase < 0 {
			return 0, 0, fmt.Errorf("negative trigger phase %d", phase)
		}
	}
	return sweep, phase, nil
}

// parseSweep parses "T" or (withDur) "T+DUR", T a trigger per parseTrigger.
func parseSweep(val string, withDur bool) (sweep, phase, dur int, err error) {
	when, tail, hasDur := strings.Cut(val, "+")
	if hasDur && !withDur {
		return 0, 0, 0, fmt.Errorf("unexpected duration in %q", val)
	}
	if sweep, phase, err = parseTrigger(when); err != nil {
		return 0, 0, 0, err
	}
	if hasDur {
		if dur, err = strconv.Atoi(tail); err != nil {
			return 0, 0, 0, err
		}
		if dur <= 0 {
			return 0, 0, 0, fmt.Errorf("duration must be positive, got %d", dur)
		}
	}
	return sweep, phase, dur, nil
}

// parseTarget parses "SBS@T" or (withDur) "SBS@T+DUR".
func parseTarget(val string, withDur bool) (sbs, sweep, phase, dur int, err error) {
	target, at, ok := strings.Cut(val, "@")
	if !ok {
		want := "SBS@SWEEP[.PHASE]"
		if withDur {
			want += "[+DUR]"
		}
		return 0, 0, 0, 0, fmt.Errorf("want %s, got %q", want, val)
	}
	if sbs, err = strconv.Atoi(target); err != nil {
		return 0, 0, 0, 0, err
	}
	if sweep, phase, dur, err = parseSweep(at, withDur); err != nil {
		return 0, 0, 0, 0, err
	}
	return sbs, sweep, phase, dur, nil
}

// parseLinkFault parses "S@T[:k=v;...]" where S is an SBS index or "*"
// (every link) and the optional pairs configure the installed faults.
func parseLinkFault(val string) (Event, error) {
	ev := Event{Op: OpLinkFaults}
	target, rest, ok := strings.Cut(val, "@")
	if !ok {
		return Event{}, fmt.Errorf("want SBS@SWEEP[.PHASE][:k=v;...], got %q", val)
	}
	if target == "*" {
		ev.SBS = -1
	} else {
		n, err := strconv.Atoi(target)
		if err != nil {
			return Event{}, err
		}
		ev.SBS = n
	}
	trigger, pairs, hasPairs := strings.Cut(rest, ":")
	var err error
	if ev.Sweep, ev.Phase, err = parseTrigger(trigger); err != nil {
		return Event{}, err
	}
	if !hasPairs {
		return ev, nil
	}
	for _, pair := range strings.Split(pairs, ";") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return Event{}, fmt.Errorf("link fault pair %q: want key=value", pair)
		}
		switch k {
		case "drop":
			ev.Faults.DropProb, err = parseProb(v)
		case "dup":
			ev.Faults.DupProb, err = parseProb(v)
		case "reorder":
			ev.Faults.ReorderProb, err = parseProb(v)
		case "delay":
			ev.Faults.MaxDelay, err = parseDelay(v)
		default:
			return Event{}, fmt.Errorf("unknown link fault key %q", k)
		}
		if err != nil {
			return Event{}, fmt.Errorf("link fault pair %q: %w", pair, err)
		}
	}
	if err := ev.Faults.Validate(); err != nil {
		return Event{}, err
	}
	return ev, nil
}
