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
// round's aggregate minus SBS n's own pre-round block), and the tracker is
// rebuilt once per round in O(N·U·F) — replacing the seed implementation's
// per-phase AggregateExcept recompute, which cost O(N·U·F) for every SBS
// of every round. The rebuild and the repair both accumulate each (u,f)
// entry over n in ascending order, so the parallel engine, which shards
// the same loops by row ranges, produces bit-identical aggregates.
type jacobiEngine struct {
	c      *Coordinator
	yMinus model.Mat
	// next receives the round's uploads while st.Y still holds the
	// pre-round policy every SBS observes; the two swap at the end of the
	// round, recycling the old tensor as the next round's buffer.
	next *model.RoutingPolicy
	// dirtyBlock[n] records whether SBS n's round-k block differs bitwise
	// from its round-(k−1) block; dirtyRow[u] whether any dirty block is
	// linked to user row u. Only dirty rows are re-merged and re-repaired.
	dirtyBlock []bool
	dirtyRow   []bool
}

func newJacobiEngine(c *Coordinator) *jacobiEngine {
	return &jacobiEngine{
		c:          c,
		yMinus:     c.inst.NewUFMat(),
		next:       model.NewRoutingPolicy(c.inst),
		dirtyBlock: make([]bool, c.inst.N),
		dirtyRow:   make([]bool, c.inst.U),
	}
}

func (e *jacobiEngine) Kind() model.EngineKind { return model.EngineJacobi }
func (e *jacobiEngine) Close()                 {}

// allMemoHits reports whether every sub-problem's memo is valid for the
// current tracker state. Such a round is a complete no-op for a non-private
// run: every hit block is bitwise equal to its current value (had an
// earlier install or repair changed it, the epoch bump would have missed
// the memo), so the round's writes, merge and repair all reproduce the
// existing bits.
//
//edgecache:noalloc
func allMemoHits(c *Coordinator, t *model.AggregateTracker) bool {
	for _, sub := range c.subs {
		if !sub.memoHit(t) {
			return false
		}
	}
	return true
}

// markDirtyRows ORs the link rows of every dirty block into dirtyRow and
// reports whether any block was dirty. dirtyRow is reset first.
//
//edgecache:noalloc
func markDirtyRows(inst *model.Instance, dirtyBlock, dirtyRow []bool) bool {
	for u := range dirtyRow {
		dirtyRow[u] = false
	}
	any := false
	for n, dirty := range dirtyBlock {
		if !dirty {
			continue
		}
		any = true
		links := inst.Links[n]
		for u := range dirtyRow {
			if links[u] {
				dirtyRow[u] = true
			}
		}
	}
	return any
}

func (e *jacobiEngine) Sweep(st *SweepState, sweep int) error {
	c, inst := e.c, e.c.inst
	memo := c.incremental()
	if memo && c.lppm == nil && allMemoHits(c, st.Tracker) {
		// Every block would be re-derived bit-identically, so the round
		// changes nothing: the γ rule sees an identical cost and stops.
		c.skips += uint64(inst.N)
		return nil
	}
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
	st.Y.Swap(e.next)
	if !markDirtyRows(inst, e.dirtyBlock, e.dirtyRow) {
		// Every upload reproduced its previous bits; the aggregate is
		// already exact and repaired.
		return nil
	}
	st.Tracker.BeginPhase()
	for n, dirty := range e.dirtyBlock {
		if dirty {
			st.Tracker.MarkBlockDirty(n)
		}
	}
	if !memo {
		st.Tracker.RebuildRows(inst, st.Y, 0, inst.U)
		st.Tracker.RepairOverserveRows(inst, st.Y, 0, inst.U)
		return nil
	}
	// Merge and repair only the rows a dirty block contributes to:
	// untouched rows still equal the ascending-n sum of their (unchanged)
	// contributing blocks and already satisfied the overserve bound.
	for u0 := 0; u0 < inst.U; {
		if !e.dirtyRow[u0] {
			u0++
			continue
		}
		u1 := u0 + 1
		for u1 < inst.U && e.dirtyRow[u1] {
			u1++
		}
		st.Tracker.RebuildRows(inst, st.Y, u0, u1)
		st.Tracker.RepairOverserveRows(inst, st.Y, u0, u1)
		u0 = u1
	}
	return nil
}
