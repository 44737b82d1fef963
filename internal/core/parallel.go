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
//   - Solve phase: the round's sub-problems are claimed in chunks off an
//     atomic cursor (chunkSize claims per fetch-add, sized from
//     N/workers, so the fan-out cost is a handful of CASes per worker
//     rather than one per SBS). Each SBS n touches only its own solver
//     workspace (c.subs[n]), its own caching-policy row (word-disjoint in
//     the packed bitset) and its own U×F block of the next-round tensor,
//     so distinct n never share memory. Every input (the pre-round policy
//     and aggregate) is read-only during the phase. Memo hits — SBSs whose
//     inputs carry unchanged epochs — skip the solve and copy the cached
//     result instead; the driver sizes the number of woken workers from
//     the miss count, and a fully-hit non-private round wakes nobody.
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
// Workers park between phases on a wake channel and signal a done channel
// after each phase, giving the engine a barrier per phase — two per
// round; the channel hand-offs also carry the happens-before edges that
// publish the driver's phase setup to the workers and the workers' writes
// back.
type parallelJacobiEngine struct {
	c       *Coordinator
	workers int

	// Per-worker scratch: y_{-n} matrices for the solve phase and
	// length-F accumulation rows for the merge phase (mergeRows shards
	// must not share scratch). Everything else a worker touches is either
	// read-only or owned by the SBS index or row range it claimed.
	yMinus       []model.Mat
	mergeScratch [][]float64
	next         *model.RoutingPolicy

	// Phase plumbing, written by the driver goroutine before the wake
	// tokens and read by workers after them.
	st        *SweepState
	phase     int
	cursor    atomic.Int64
	chunk     int // solve-phase claims per cursor fetch-add
	active    int // workers woken for the current phase; shard divisor
	memoRound bool
	errs      []error

	// Per-round dirty-set state. hit is the driver's memo pre-pass;
	// dirtyBlock is written only by the worker that claimed the SBS (or by
	// the driver's LPPM pass); dirtyRow is written by the driver's
	// endRound and read by the merge shards.
	hit        []bool
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
		c:            c,
		workers:      workers,
		yMinus:       make([]model.Mat, workers),
		mergeScratch: make([][]float64, workers),
		next:         model.NewRoutingPolicy(c.inst),
		errs:         make([]error, workers),
		hit:          make([]bool, c.inst.N),
		dirtyBlock:   make([]bool, c.inst.N),
		dirtyRow:     make([]bool, c.inst.U),
		wake:         make([]chan struct{}, workers),
		done:         make(chan struct{}, workers),
		quit:         make(chan struct{}),
	}
	// Chunked claims amortize the cursor contention: ~4 chunks per worker
	// keeps dynamic balancing while shrinking the CAS count from N to
	// ~4·workers per round.
	e.chunk = c.inst.N / (4 * workers)
	if e.chunk < 1 {
		e.chunk = 1
	}
	for w := range e.yMinus {
		e.yMinus[w] = c.inst.NewUFMat()
		e.mergeScratch[w] = make([]float64, c.inst.F)
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
		mergeRows(e.st.Tracker, e.c.inst, e.st.Y, e.dirtyRow, u0, u1, e.mergeScratch[w])
	}
}

// solveShare claims chunks of sub-problems off the shared cursor until the
// round is drained. Memo hits copy the cached result; misses solve.
//
//edgecache:noalloc
func (e *parallelJacobiEngine) solveShare(w int) {
	c, inst, st := e.c, e.c.inst, e.st
	for {
		base := int(e.cursor.Add(int64(e.chunk))) - e.chunk
		if base >= inst.N {
			return
		}
		top := base + e.chunk
		if top > inst.N {
			top = inst.N
		}
		for n := base; n < top; n++ {
			if e.errs[w] != nil {
				continue // drain the cursor; the round already failed
			}
			if e.hit[n] {
				// The cached result is bit-identical to what a re-solve
				// would produce; install its clean routing so the LPPM pass
				// (or the swap) sees exactly what the reference engine
				// would have written.
				sub := c.subs[n].cachedResult()
				st.X.SetRow(n, sub.Cache)
				e.next.SetSBS(n, sub.Routing)
				e.dirtyBlock[n] = false
				continue
			}
			st.Tracker.YMinusInto(inst, st.Y, n, e.yMinus[w])
			sub, err := c.subs[n].Solve(e.yMinus[w])
			if err != nil {
				e.errs[w] = err
				continue
			}
			if e.memoRound {
				c.subs[n].memoCapture(st.Tracker)
			}
			st.X.SetRow(n, sub.Cache)
			// Change detection against the pre-round block (st.Y is frozen
			// for the phase). Without the memo the round is the full
			// reference: every block counts as dirty.
			e.dirtyBlock[n] = !e.memoRound || !st.Y.SBS(n).BitsEqual(sub.Routing)
			e.next.SetSBS(n, sub.Routing)
		}
	}
}

// rowRange is worker w's static user-row shard [u0, u1) for the merge
// phase, split across the workers woken for the phase. Contiguous
// ranges keep each worker on sequential memory.
//
//edgecache:noalloc
func (e *parallelJacobiEngine) rowRange(w int) (int, int) {
	u := e.c.inst.U
	return w * u / e.active, (w + 1) * u / e.active
}

// barrier publishes phase to the first `active` workers and blocks until
// every one of them has finished its share. Sizing active from the actual
// work (miss count, dirty-row count) is what keeps all-hit and mostly-hit
// rounds from paying workers·(wake+park) for nothing.
func (e *parallelJacobiEngine) barrier(phase, active int) {
	e.phase = phase
	e.active = active
	e.cursor.Store(0)
	for w := 0; w < active; w++ {
		e.wake[w] <- struct{}{}
	}
	for w := 0; w < active; w++ {
		<-e.done
	}
}

// clampWorkers bounds a work-derived worker count to [1, workers].
func (e *parallelJacobiEngine) clampWorkers(work int) int {
	if work < 1 {
		work = 1
	}
	if work > e.workers {
		work = e.workers
	}
	return work
}

func (e *parallelJacobiEngine) Sweep(st *SweepState, sweep int) error {
	if err := e.ensureStarted(); err != nil {
		return err
	}
	c, inst := e.c, e.c.inst
	memo := c.incremental()
	e.memoRound = memo

	// Memo pre-pass (driver-side, serial): classify each SBS before any
	// worker wakes, so the wake count can be sized from the misses.
	misses := 0
	for n := 0; n < inst.N; n++ {
		e.hit[n] = memo && c.subs[n].memoHit(st.Tracker)
		if !e.hit[n] {
			misses++
		}
	}
	if memo && c.lppm == nil && misses == 0 {
		// Fully-hit non-private round: every block would be re-derived
		// bit-identically, so the round is a no-op — no wakeups, no swap,
		// no merge. The reference engine reaches the same bits by
		// answering every phase from the memo.
		c.skips += uint64(inst.N)
		return nil
	}

	e.st = st
	for w := range e.errs {
		e.errs[w] = nil
	}

	// Solve every miss against the same pre-round aggregate (hits copy
	// their cached result); the raw uploads land in e.next while st.Y
	// stays frozen as the round's read-only input. Hit copies are memcpy
	// cheap, so the wake count follows the solve work.
	chunks := (inst.N + e.chunk - 1) / e.chunk
	solveWorkers := e.clampWorkers(misses)
	if solveWorkers > chunks {
		solveWorkers = chunks
	}
	e.barrier(phaseSolve, solveWorkers)
	for _, err := range e.errs {
		if err != nil {
			c.invalidateMemos()
			e.st = nil
			return err
		}
	}
	c.solves += uint64(misses)
	c.skips += uint64(inst.N - misses)

	// Privacy pass: one shared noise stream means one drawer. Ascending
	// SBS order reproduces the sequential engines' draw sequence exactly.
	// The perturbed upload decides the block's dirtiness.
	if c.lppm != nil {
		for n := 0; n < inst.N; n++ {
			upload, err := c.lppm.PerturbSBS(n, e.next.SBS(n))
			if err != nil {
				c.invalidateMemos()
				e.st = nil
				return err
			}
			e.dirtyBlock[n] = !memo || !st.Y.SBS(n).BitsEqual(upload)
			e.next.SetSBS(n, upload)
		}
	}

	if dirtyRows := endRound(inst, st, e.next, memo, e.dirtyBlock, e.dirtyRow); dirtyRows > 0 {
		mergeWorkers := e.workers
		if memo {
			// A worker per handful of dirty rows: a nearly-converged round
			// re-merges a sliver of the aggregate and should not pay
			// workers·(wake+park) to do it.
			mergeWorkers = e.clampWorkers((dirtyRows + 15) / 16)
		}
		e.barrier(phaseMerge, mergeWorkers)
	}
	e.st = nil
	return nil
}
