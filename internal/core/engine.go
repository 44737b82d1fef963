package core

import (
	"fmt"
	"math"

	"edgecache/internal/model"
)

// This file is the pluggable sweep-engine layer. Algorithm 1's outer loop
// — cost evaluation, best-solution tracking, the γ stop rule, checkpoint
// cadence and resume — is identical no matter how the per-SBS sub-problems
// are ordered within a sweep, so it lives once in Driver. What varies is
// the update discipline inside one sweep, and that is the SweepEngine
// interface: the sequential Gauss-Seidel sweep (the paper's Algorithm 1),
// the sequential reference Jacobi round (§VII), and the goroutine-sharded
// parallel Jacobi engine that computes the identical trajectory on a
// worker pool; the multi-BS round (multibs.go) is one more engine.

// EngineKind and its values are re-exported from internal/model, where the
// checkpoint codec serializes them.
type EngineKind = model.EngineKind

// Engine kinds accepted by Config.Engine.
const (
	EngineGaussSeidel    = model.EngineGaussSeidel
	EngineJacobi         = model.EngineJacobi
	EngineParallelJacobi = model.EngineParallelJacobi
)

// SweepState is everything a run carries between sweeps — the live
// counterpart of a model.Checkpoint. NewSweepState builds the
// iteration-zero state; Coordinator.Resume rebuilds one from a snapshot.
// A run resumes at sweep boundaries only (model.UnmarshalCheckpoint
// rejects anything else).
type SweepState struct {
	// Order is the SBS update order of the run. Gauss-Seidel honours it;
	// the Jacobi engines require the identity order (a Jacobi round has no
	// update order — every SBS sees the same pre-round state).
	Order []int
	// Sweep is the next sweep to execute.
	Sweep int
	// Phase is always 0: a run resumes at sweep boundaries only.
	//
	// Deprecated: nothing in this module reads Phase; it goes once
	// cmd/edgebench's replay stops reading it.
	Phase int
	// X and Y are the BS's view of the policies (post-LPPM when privacy is
	// on).
	X *model.CachingPolicy
	Y *model.RoutingPolicy
	// Tracker maintains the masked aggregate Σ_n y·l incrementally: each
	// Gauss-Seidel phase derives y_{-n} in O(U·F), and the Jacobi engines
	// rebuild every row once per round in O(N·U·F) at most, instead of an
	// O(N·U·F) recompute of y_{-n} for every phase.
	Tracker *model.AggregateTracker
	// History is the per-sweep cost trail; PrevCost the γ reference.
	History  []float64
	PrevCost float64
	// Best is the cheapest solution seen so far. While Driver.Run is
	// between the sweep that set it and the next one, it holds X and Y
	// themselves rather than copies, and the run's result takes them: a
	// state must not be mutated once Run has returned on it.
	Best *model.Solution
}

// NewSweepState returns the all-zero initial state for one run over inst.
// The order slice is retained, not copied.
func NewSweepState(inst *model.Instance, order []int) *SweepState {
	return &SweepState{
		Order:    order,
		X:        model.NewCachingPolicy(inst),
		Y:        model.NewRoutingPolicy(inst),
		Tracker:  model.NewAggregateTracker(inst),
		PrevCost: math.Inf(1),
	}
}

// Checkpoint captures st as the resume point at the start of sweep
// `sweep` of a run by engine kind over inst; history is the run's cost
// trail so far (RunResult.History). Every slice and policy is copied, so
// the run may keep mutating st. Callers add their own extras: the noise position of
// a private run, the BS agent's per-SBS health.
func (st *SweepState) Checkpoint(inst *model.Instance, kind EngineKind, history []float64, sweep int) *model.Checkpoint {
	return &model.Checkpoint{
		Sweep:      sweep,
		Engine:     kind,
		Order:      append([]int(nil), st.Order...),
		Caching:    st.X.Clone(),
		Routing:    st.Y.Clone(),
		Aggregate:  st.Tracker.Aggregate().Clone(),
		History:    append([]float64(nil), history...),
		PrevCost:   st.PrevCost,
		Best:       st.Best.Clone(),
		InstanceFP: inst.Fingerprint(),
	}
}

// SweepStateFromCheckpoint is the inverse of SweepState.Checkpoint: the
// live state to resume ck from, sharing no memory with ck. The caller
// validates ck against inst first (model.Checkpoint.Validate).
func SweepStateFromCheckpoint(inst *model.Instance, ck *model.Checkpoint) *SweepState {
	st := &SweepState{
		Order:    append([]int(nil), ck.Order...),
		Sweep:    ck.Sweep,
		X:        ck.Caching.Clone(),
		Y:        ck.Routing.Clone(),
		Tracker:  model.NewAggregateTracker(inst),
		History:  append([]float64(nil), ck.History...),
		PrevCost: ck.PrevCost,
		Best:     ck.Best.Clone(),
	}
	st.Tracker.Restore(ck.Aggregate)
	return st
}

// identityOrder returns 0..n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// SweepEngine executes one sweep (Gauss-Seidel) or one round (Jacobi) of
// the distributed updating algorithm. Implementations mutate st in place:
// after Sweep returns, st.X and st.Y hold the post-sweep policies and
// st.Tracker the matching aggregate, bit-identical to what a full
// AggregateInto rebuild of st.Y would produce for the Jacobi engines, or
// the incremental running sums for Gauss-Seidel.
type SweepEngine interface {
	// Kind identifies the engine; checkpoints record it and resume
	// requires a same-family engine.
	Kind() model.EngineKind
	// Sweep runs the whole of sweep `sweep`, every phase in st.Order.
	Sweep(st *SweepState, sweep int) error
	// Close releases engine resources (the parallel engine's worker
	// pool). It is idempotent; the sequential engines are no-ops.
	Close()
}

// Driver is the shared outer loop of Algorithm 1: it alternates
// engine sweeps with cost evaluation, best tracking, the γ stop rule and
// checkpoint capture. Every Algorithm 1 run goes through it: the
// in-process Coordinator, the message-passing BS agent (internal/sim) and
// the multi-BS extension (RunMultiBS). The Coordinator and the BS agent
// also share the Gauss-Seidel phase loop, which is what keeps the two
// deployments bit-for-bit equivalent.
type Driver struct {
	// Inst is the problem instance.
	Inst *model.Instance
	// Gamma is the relative-improvement stop threshold; MaxSweeps the
	// sweep budget. Run reads 0 (or less) as γ = 1e-6 and a budget of 50
	// sweeps; every deployment leaves its defaults to it.
	Gamma     float64
	MaxSweeps int
	// Snapshot, when non-nil, is called at every sweep boundary the run
	// continues past, with the sweep to resume at. st.Best is complete but
	// may hold st.X and st.Y themselves (see Run), so a snapshot copies
	// whatever it keeps, as SweepState.Checkpoint does.
	Snapshot func(st *SweepState, res *RunResult, sweep int) error
	// HoldConvergence, when non-nil, is consulted exactly once after every
	// sweep; a true return vetoes the γ stop for that sweep. The BS agent uses
	// it when faults corrupted the sweep's cost signal (missed uploads,
	// quarantined SBSs).
	HoldConvergence func() bool
	// workTotals, when non-nil, returns the cumulative memo accounting of
	// the engine's sub-problems; Run records its per-sweep differences in
	// RunResult.Work. The Coordinator sets it; the BS agent cannot, since
	// its SBSs solve out of its sight.
	workTotals func() SweepWork
}

// Algorithm 1's stop threshold and sweep budget when Driver leaves them 0.
const (
	defaultGamma     = 1e-6
	defaultMaxSweeps = 50
)

// Run drives the engine from st (iteration zero or a resumed snapshot) to
// completion.
//
// The BS evaluates the uploaded aggregate after every sweep anyway
// (Algorithm 1's stop rule needs f(y(τ))), so it retains the cheapest
// policy seen and returns that. Without LPPM the sweep costs are
// non-increasing and this is exactly the final sweep; with LPPM per-sweep
// noise redraws can drift the trajectory, and keeping the best sweep is
// the natural BS-side behaviour.
//
// A sweep that sets a new best makes st.Best hold st.X and st.Y
// themselves, with no copy; the copy is taken only when another sweep is
// about to overwrite them. A run that ends on its best sweep, as every
// run without LPPM does, thus hands its final policies to
// RunResult.Solution as they are. The round engines keep their pre-round
// tensor for the next round, not st.Y, so nothing an engine does later
// writes a returned Solution; st itself must not be mutated after Run
// returns.
func (d *Driver) Run(eng SweepEngine, st *SweepState) (*RunResult, error) {
	gamma, maxSweeps := d.Gamma, d.MaxSweeps
	if gamma <= 0 {
		gamma = defaultGamma
	}
	if maxSweeps <= 0 {
		maxSweeps = defaultMaxSweeps
	}
	res := &RunResult{History: st.History, Sweeps: len(st.History)}
	var prev SweepWork
	if d.workTotals != nil {
		prev = d.workTotals()
	}

	// shared reports that st.Best holds st.X and st.Y themselves.
	shared := false
	for sweep := st.Sweep; sweep < maxSweeps; sweep++ {
		if shared {
			st.Best = st.Best.Clone() // the sweep overwrites the best state
			shared = false
		}
		if err := eng.Sweep(st, sweep); err != nil {
			return nil, err
		}
		if d.workTotals != nil {
			tot := d.workTotals()
			res.Work = append(res.Work, SweepWork{Solves: tot.Solves - prev.Solves, Skipped: tot.Skipped - prev.Skipped})
			prev = tot
		}
		cost := model.TotalServingCostFromAggregate(d.Inst, st.Y, st.Tracker.Aggregate())
		res.History = append(res.History, cost.Total)
		res.Sweeps = sweep + 1
		if st.Best == nil || cost.Total < st.Best.Cost.Total {
			st.Best = &model.Solution{Caching: st.X, Routing: st.Y, Cost: cost}
			shared = true
		}

		// Algorithm 1's stop rule: relative improvement below γ. The
		// absolute value guards against noise-induced oscillation under
		// LPPM (Theorem 3 guarantees convergence of the underlying
		// sequence, but individual sweeps can regress slightly).
		hold := d.HoldConvergence != nil && d.HoldConvergence()
		if !hold && cost.Total > 0 && math.Abs(st.PrevCost-cost.Total)/cost.Total <= gamma {
			res.Converged = true
			st.PrevCost = cost.Total
			break
		}
		st.PrevCost = cost.Total
		if d.Snapshot != nil {
			if err := d.Snapshot(st, res, sweep+1); err != nil {
				return nil, err
			}
		}
	}

	// No sweep ran: a decoded checkpoint may already sit at (or past) the
	// budget without a best solution.
	if st.Best == nil {
		st.Best = &model.Solution{Caching: st.X, Routing: st.Y, Cost: model.TotalServingCost(d.Inst, st.Y)}
	}
	res.Solution = st.Best
	return res, nil
}

// PhaseFunc answers phase n of sweep `sweep`: given y_{-n}, it returns
// SBS n's new caching row and routing upload. ok=false keeps SBS n's
// previous policy (the BS agent's answer when an upload is missing or
// malformed). The returned slices are only read until the phase installs
// them. st is the live sweep state; answers must not mutate it.
type PhaseFunc func(st *SweepState, sweep, n int, yMinus model.Mat) (cache []bool, upload model.Mat, ok bool, err error)

// gsEngine is the paper's Algorithm 1 update discipline: SBSs update one
// at a time in st.Order, each answering against the aggregate that already
// includes every earlier update of the same sweep. It is the one
// Gauss-Seidel phase loop; the in-process Coordinator and the BS agent
// (internal/sim) differ only in how they answer a phase.
type gsEngine struct {
	inst   *model.Instance
	answer PhaseFunc
	yMinus model.Mat
}

// NewGaussSeidelEngine returns the Gauss-Seidel engine over inst whose
// phases are answered by answer. Run it with Driver.Run.
func NewGaussSeidelEngine(inst *model.Instance, answer PhaseFunc) SweepEngine {
	return &gsEngine{inst: inst, answer: answer, yMinus: inst.NewUFMat()}
}

func (e *gsEngine) Kind() model.EngineKind { return model.EngineGaussSeidel }
func (e *gsEngine) Close()                 {}

func (e *gsEngine) Sweep(st *SweepState, sweep int) error {
	for _, n := range st.Order {
		// The BS broadcasts the aggregate routing; SBS n subtracts its
		// own last upload to obtain y_{-n} (eq. 25).
		st.Tracker.YMinusInto(e.inst, st.Y, n, e.yMinus)
		cache, upload, ok, err := e.answer(st, sweep, n, e.yMinus)
		if err != nil {
			return err
		}
		if ok {
			st.X.SetRow(n, cache)
			st.Tracker.Install(e.inst, st.Y, n, e.yMinus, upload)
		}
	}
	return nil
}

// newEngine builds the engine selected by cfg.Engine for this
// coordinator; workers is poolSize(c.cfg).
func (c *Coordinator) newEngine(workers int) (SweepEngine, error) {
	switch c.cfg.Engine {
	case model.EngineGaussSeidel:
		return NewGaussSeidelEngine(c.inst, c.answerPhase), nil
	case model.EngineJacobi:
		return newJacobiEngine(c), nil
	case model.EngineParallelJacobi:
		return newParallelJacobiEngine(c, workers), nil
	default:
		return nil, fmt.Errorf("core: unknown engine kind %v", c.cfg.Engine)
	}
}

// workTotals sums the memo accounting of every SBS's sub-problem: all
// engines answer through Subproblem.respond, which does the counting.
func (c *Coordinator) workTotals() SweepWork {
	var t SweepWork
	for _, s := range c.subs {
		t.Solves += s.solves
		t.Skipped += s.skips
	}
	return t
}

// runEngine wires the coordinator's configuration into the shared driver
// and runs eng from st.
func (c *Coordinator) runEngine(eng SweepEngine, st *SweepState) (*RunResult, error) {
	d := &Driver{
		Inst:       c.inst,
		Gamma:      c.cfg.Gamma,
		MaxSweeps:  c.cfg.MaxSweeps,
		workTotals: c.workTotals,
	}
	if ckpt := c.cfg.Checkpoint; ckpt != nil {
		kind := eng.Kind()
		d.Snapshot = func(st *SweepState, res *RunResult, sweep int) error {
			return c.snapshot(ckpt.Sink, kind, st, res, sweep)
		}
	}
	return d.Run(eng, st)
}
