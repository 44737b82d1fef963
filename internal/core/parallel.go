package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"edgecache/internal/model"
)

// parallelJacobiEngine computes the exact trajectory of the reference
// jacobiEngine on a persistent worker pool. Parallelism is safe and
// deterministic by construction:
//
//   - Solve phase: workers claim sub-problems one SBS at a time off an
//     atomic cursor. The claiming worker derives SBS n's y_{-n} and checks
//     n's memo itself: a hit takes the cached result, a miss solves; the
//     rest of the claim is the same either way. Each SBS n touches only
//     its own solver workspace (c.subs[n], which holds its memo), its own
//     caching-policy row (word-disjoint in the packed bitset) and its own
//     U×F block of the next-round tensor, so distinct n never share
//     memory. The shared inputs, the pre-round policy and aggregate, are
//     read-only during the phase.
//   - LPPM pass: noise draws come from one shared sequential stream, so
//     the driver goroutine perturbs the uploads alone, in ascending SBS
//     order — the same draw sequence as the sequential engines. Solves
//     consume no randomness, so scheduling cannot reorder draws.
//   - Merge phase: the driver's endRound (shared with the reference
//     engine) swaps the uploads in and marks the dirty rows; the workers
//     then run mergeRows on contiguous user-row shards, rebuilding and
//     repairing each dirty run in place. Both steps are row-local and
//     accumulate each (u,f) entry over n in ascending order (see
//     AggregateTracker.RebuildRows), so the reduction order — and
//     therefore every floating-point bit — is independent of the worker
//     count, of scheduling, and of which rows were skipped (a skipped
//     row's recompute would reproduce its current bits).
//
// Every phase wakes every worker. Workers park between phases on a wake
// channel and signal a done channel after each phase, giving the engine a
// barrier per phase — two per round; the channel hand-offs also carry the
// happens-before edges that publish the driver's phase setup to the
// workers and the workers' writes back.
type parallelJacobiEngine struct {
	c       *Coordinator
	workers int

	// Per-worker y_{-n} scratch for the solve phase. Everything else a
	// worker touches is either read-only or owned by the SBS index or row
	// range it claimed.
	yMinus []model.Mat
	next   *model.RoutingPolicy

	// Phase plumbing, written by the driver goroutine before the wake
	// tokens and read by workers after them. errs and solved are
	// per-worker slots: a worker's first solve error, and how many of its
	// claims it solved rather than answered from the memo.
	st     *SweepState
	phase  int
	cursor atomic.Int64
	memo   bool
	errs   []error
	solved []int

	// Per-round dirty-set state. dirtyBlock is written only by the worker
	// that claimed the SBS (or by the driver's LPPM pass); dirtyRow is
	// written by the driver's endRound and read by the merge shards.
	dirtyBlock []bool
	dirtyRow   []bool

	started bool
	closed  bool
	// wake is per-worker: the merge shards are assigned by worker id, so
	// each worker must run every phase exactly once — a shared channel
	// would let a fast worker steal a slow one's token and leave that
	// worker's shard stale.
	wake []chan struct{}
	done chan struct{} // one token back per worker per phase
	quit chan struct{}
}

// Worker phases of one Jacobi round.
const (
	phaseSolve = iota
	phaseMerge
)

func newParallelJacobiEngine(c *Coordinator, workers int) *parallelJacobiEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &parallelJacobiEngine{
		c:          c,
		workers:    workers,
		yMinus:     make([]model.Mat, workers),
		next:       model.NewRoutingPolicy(c.inst),
		errs:       make([]error, workers),
		solved:     make([]int, workers),
		dirtyBlock: make([]bool, c.inst.N),
		dirtyRow:   make([]bool, c.inst.U),
		wake:       make([]chan struct{}, workers),
		done:       make(chan struct{}, workers),
		quit:       make(chan struct{}),
	}
	for w := range e.yMinus {
		e.yMinus[w] = c.inst.NewUFMat()
		e.wake[w] = make(chan struct{}, 1)
	}
	return e
}

func (e *parallelJacobiEngine) Kind() model.EngineKind { return model.EngineParallelJacobi }

// Close stops the worker pool. Idempotent.
func (e *parallelJacobiEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.started {
		close(e.quit)
	}
}

// ensureStarted spawns the pool on first use, so coordinators that never
// run the parallel engine never own goroutines.
func (e *parallelJacobiEngine) ensureStarted() error {
	if e.closed {
		return fmt.Errorf("core: parallel engine is closed")
	}
	if e.started {
		return nil
	}
	e.started = true
	for w := 0; w < e.workers; w++ {
		go e.worker(w)
	}
	return nil
}

// worker parks until the driver publishes a phase, runs its share, and
// reports back. The phase body lives in runPhase so the zero-alloc
// noalloc closure covers exactly the steady-state work, not the parking.
func (e *parallelJacobiEngine) worker(w int) {
	for {
		select {
		case <-e.quit:
			return
		case <-e.wake[w]:
			e.runPhase(w)
			select {
			case e.done <- struct{}{}:
			case <-e.quit:
				return
			}
		}
	}
}

// runPhase executes worker w's share of the published phase. It is the
// steady-state body of the pool and must stay allocation-free: the only
// state it touches is the pre-sized per-worker scratch, the per-SBS
// solver workspaces and the flat tensors.
//
//edgecache:noalloc
func (e *parallelJacobiEngine) runPhase(w int) {
	switch e.phase {
	case phaseSolve:
		e.solveShare(w)
	case phaseMerge:
		u0, u1 := e.rowRange(w)
		mergeRows(e.st.Tracker, e.c.inst, e.st.Y, e.dirtyRow, u0, u1)
	}
}

// solveShare claims sub-problems off the shared cursor, one SBS per
// claim, until the round is drained. Each claim derives y_{-n} and takes
// SBS n's response: a memo hit or a solve, counted in solved[w].
//
//edgecache:noalloc
func (e *parallelJacobiEngine) solveShare(w int) {
	c, inst, st := e.c, e.c.inst, e.st
	solved := 0
	for {
		n := int(e.cursor.Add(1)) - 1
		if n >= inst.N {
			break
		}
		if e.errs[w] != nil {
			continue // drain the cursor; the round already failed
		}
		st.Tracker.YMinusInto(inst, st.Y, n, e.yMinus[w])
		res, hit, err := c.subs[n].respond(e.yMinus[w], e.memo)
		if err != nil {
			e.errs[w] = err
			continue
		}
		if !hit {
			solved++
		}
		st.X.SetRow(n, res.Cache)
		// Change detection against the pre-round block (st.Y is frozen
		// for the phase). Without the memo the round is the full
		// reference: every block counts as dirty.
		e.dirtyBlock[n] = !e.memo || !st.Y.SBS(n).BitsEqual(res.Routing)
		e.next.SetSBS(n, res.Routing)
	}
	e.solved[w] = solved
}

// rowRange is worker w's static user-row shard [u0, u1) for the merge
// phase. Contiguous ranges keep each worker on sequential memory.
//
//edgecache:noalloc
func (e *parallelJacobiEngine) rowRange(w int) (int, int) {
	u := e.c.inst.U
	return w * u / e.workers, (w + 1) * u / e.workers
}

// barrier publishes phase to every worker and blocks until each one has
// finished its share.
func (e *parallelJacobiEngine) barrier(phase int) {
	e.phase = phase
	e.cursor.Store(0)
	for _, wake := range e.wake {
		wake <- struct{}{}
	}
	for range e.wake {
		<-e.done
	}
}

func (e *parallelJacobiEngine) Sweep(st *SweepState, sweep int) error {
	if err := e.ensureStarted(); err != nil {
		return err
	}
	c, inst := e.c, e.c.inst
	e.memo = !c.cfg.DisableIncremental
	e.st = st
	for w := range e.errs {
		e.errs[w] = nil
	}

	// Solve every SBS against the same pre-round aggregate; the raw
	// uploads land in e.next while st.Y stays frozen as the round's
	// read-only input.
	e.barrier(phaseSolve)
	solves := 0
	for w, err := range e.errs {
		if err != nil {
			e.st = nil
			return err
		}
		solves += e.solved[w]
	}
	c.solves += uint64(solves)
	c.skips += uint64(inst.N - solves)

	// Privacy pass: one shared noise stream means one drawer. Ascending
	// SBS order reproduces the sequential engines' draw sequence exactly.
	// The perturbed upload decides the block's dirtiness.
	if c.lppm != nil {
		for n := 0; n < inst.N; n++ {
			upload, err := c.lppm.PerturbSBS(n, e.next.SBS(n))
			if err != nil {
				e.st = nil
				return err
			}
			e.dirtyBlock[n] = !e.memo || !st.Y.SBS(n).BitsEqual(upload)
			e.next.SetSBS(n, upload)
		}
	}

	if endRound(inst, st, e.next, e.memo, e.dirtyBlock, e.dirtyRow) > 0 {
		e.barrier(phaseMerge)
	}
	e.st = nil
	return nil
}
