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
// round's aggregate minus SBS n's own pre-round block). Every round ends
// the same way in all three round engines: Swap promotes the uploads, and
// mergeRows rebuilds and repairs every row. The rebuild and the repair
// both accumulate each (u,f) entry over n in ascending order, so the
// parallel engine, which shards mergeRows by row ranges, produces
// bit-identical aggregates.
type jacobiEngine struct {
	c      *Coordinator
	yMinus model.Mat
	// next receives the round's uploads while st.Y still holds the
	// pre-round policy every SBS observes; the two swap at the end of the
	// round, recycling the old tensor as the next round's buffer.
	next *model.RoutingPolicy
}

func newJacobiEngine(c *Coordinator) *jacobiEngine {
	return &jacobiEngine{
		c:      c,
		yMinus: c.inst.NewUFMat(),
		next:   model.NewRoutingPolicy(c.inst),
	}
}

func (e *jacobiEngine) Kind() model.EngineKind { return model.EngineJacobi }
func (e *jacobiEngine) Close()                 {}

// mergeRows is the BS's reconciliation of a Jacobi round over the rows
// [u0, u1): it rebuilds the aggregate from the round's blocks, then
// repairs any overserve. Both steps read and write only row u of each
// block and of the aggregate, so disjoint row ranges may run
// concurrently. A row whose linked blocks all kept their bits gets its
// own bits back: the rebuild sums the same blocks in the same order, and
// the repair leaves alone an entry the last repair already brought within
// its bound.
//
//edgecache:noalloc
func mergeRows(t *model.AggregateTracker, inst *model.Instance, y *model.RoutingPolicy, u0, u1 int) {
	t.RebuildRows(inst, y, u0, u1)
	t.RepairOverserveRows(inst, y, u0, u1)
}

func (e *jacobiEngine) Sweep(st *SweepState, sweep int) error {
	c, inst := e.c, e.c.inst
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
		e.next.SetSBS(n, upload)
	}
	st.Y.Swap(e.next)
	mergeRows(st.Tracker, inst, st.Y, 0, inst.U)
	return nil
}
