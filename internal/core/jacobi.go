package core

import "edgecache/internal/model"

// jacobiEngine is the sequential reference implementation of the
// parallel-update variant the paper leaves as future work (§VII): instead
// of the Gauss-Seidel sweep, every SBS of a round solves its sub-problem
// against the same pre-round aggregate — the classic Jacobi update, which
// models SBSs that compute concurrently on possibly-stale broadcast state.
//
// Because two SBSs can simultaneously claim the same residual demand, the
// raw Jacobi round may violate the no-overserve constraint (4). The BS
// repairs each round: wherever the aggregate exceeds one, every SBS's
// share of that demand is scaled down proportionally (the BS already owns
// the aggregate, so the repair needs no extra information exchange). The
// repaired policy is what the BS evaluates and finally returns, so every
// result is feasible.
//
// The per-SBS y_{-n} comes from the aggregate tracker in O(U·F) (the
// round's aggregate minus SBS n's own pre-round block). The round ends in
// endRound and mergeRows, which the parallel engine shares: the rebuild
// and the repair both accumulate each (u,f) entry over n in ascending
// order, so the parallel engine, which shards mergeRows by row ranges,
// produces bit-identical aggregates.
type jacobiEngine struct {
	c      *Coordinator
	yMinus model.Mat
	// next receives the round's uploads while st.Y still holds the
	// pre-round policy every SBS observes; the two swap at the end of the
	// round, recycling the old tensor as the next round's buffer.
	next *model.RoutingPolicy
	// dirtyBlock and dirtyRow are the round's change sets (see endRound);
	// scratch is mergeRows' length-F accumulation row.
	dirtyBlock []bool
	dirtyRow   []bool
	scratch    []float64
}

func newJacobiEngine(c *Coordinator) *jacobiEngine {
	return &jacobiEngine{
		c:          c,
		yMinus:     c.inst.NewUFMat(),
		next:       model.NewRoutingPolicy(c.inst),
		dirtyBlock: make([]bool, c.inst.N),
		dirtyRow:   make([]bool, c.inst.U),
		scratch:    make([]float64, c.inst.F),
	}
}

func (e *jacobiEngine) Kind() model.EngineKind { return model.EngineJacobi }
func (e *jacobiEngine) Close()                 {}

// endRound promotes the round's uploads in next to st.Y and prepares the
// merge. dirtyBlock[n] records whether SBS n's upload differs bitwise from
// its pre-round block; endRound sets dirtyRow[u] for every row a dirty
// block is linked to — every row when memo is off — advances the phase
// clock and stamps the dirty blocks. It returns the number of dirty rows,
// 0 when no block changed: the aggregate is then already exact and
// repaired, and the clock stays put.
//
//edgecache:noalloc
func endRound(inst *model.Instance, st *SweepState, next *model.RoutingPolicy, memo bool, dirtyBlock, dirtyRow []bool) int {
	st.Y.Swap(next)
	for u := range dirtyRow {
		dirtyRow[u] = !memo
	}
	stamped := false
	for n, dirty := range dirtyBlock {
		if !dirty {
			continue
		}
		if !stamped {
			st.Tracker.BeginPhase()
			stamped = true
		}
		st.Tracker.MarkBlockDirty(n)
		for u, linked := range inst.Links[n] {
			if linked {
				dirtyRow[u] = true
			}
		}
	}
	if !stamped {
		return 0
	}
	rows := 0
	for _, dirty := range dirtyRow {
		if dirty {
			rows++
		}
	}
	return rows
}

// mergeRows is the BS's reconciliation of a Jacobi round over the rows
// [u0, u1): for each maximal run of dirty rows it rebuilds the aggregate
// from the round's blocks, then repairs any overserve. Both steps read and
// write only row u of each block and of the aggregate, so rebuilding and
// repairing run by run gives the same bits as all rebuilds followed by
// all repairs, and disjoint row ranges may run concurrently with disjoint
// scratch. A clean row still equals the ascending-n sum of its unchanged
// blocks and already satisfies the overserve bound; contiguous runs keep
// each call on sequential aggregate and policy memory.
//
//edgecache:noalloc
func mergeRows(t *model.AggregateTracker, inst *model.Instance, y *model.RoutingPolicy, dirtyRow []bool, u0, u1 int, scratch []float64) {
	for u0 < u1 {
		if !dirtyRow[u0] {
			u0++
			continue
		}
		end := u0 + 1
		for end < u1 && dirtyRow[end] {
			end++
		}
		t.RebuildRowsScratch(inst, y, u0, end, scratch)
		t.RepairOverserveRows(inst, y, u0, end)
		u0 = end
	}
}

func (e *jacobiEngine) Sweep(st *SweepState, sweep int) error {
	c, inst := e.c, e.c.inst
	memo := !c.cfg.DisableIncremental
	// All SBSs observe the same pre-round policy (stale state). Every
	// block of next is overwritten below, so the swapped-in buffer needs
	// no clearing.
	for n := 0; n < inst.N; n++ {
		st.Tracker.YMinusInto(inst, st.Y, n, e.yMinus)
		cache, upload, _, err := c.answerPhase(st, sweep, n, e.yMinus)
		if err != nil {
			return err
		}
		st.X.SetRow(n, cache)
		// Change detection against the pre-round block (st.Y still holds
		// it): a clean block's rows need no re-merge, and its owner's — and
		// neighbours' — memos survive the round.
		e.dirtyBlock[n] = !memo || !st.Y.SBS(n).BitsEqual(upload)
		e.next.SetSBS(n, upload)
	}
	if endRound(inst, st, e.next, memo, e.dirtyBlock, e.dirtyRow) > 0 {
		mergeRows(st.Tracker, inst, st.Y, e.dirtyRow, 0, inst.U, e.scratch)
	}
	return nil
}
