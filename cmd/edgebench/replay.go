package main

import (
	"math"

	"edgecache/internal/core"
	"edgecache/internal/model"
)

// replay re-executes one engine's sweeps and core.Driver's outer loop with
// the dirty-set memo off, through exported calls only, and wraps every call
// in a span. It computes the engine's trajectory bit for bit (the workloads
// check that before using any of its numbers), so its spans attribute the
// engine's time to layers without instrumenting the program.
type replay struct {
	inst      *model.Instance
	tr        *tracer
	subs      []*core.Subproblem
	items     []int
	gamma     float64
	maxSweeps int
	// perturb, when set, applies LPPM to SBS n's upload: one shared noise
	// stream for the in-process coordinator, one per SBS for the agents.
	perturb func(n int, routing model.Mat) (model.Mat, error)
	// snapshot, when set, captures a checkpoint at each sweep boundary, as
	// the coordinator does with its default cadence.
	snapshot func(st *core.SweepState, res *core.RunResult, sweep int) error

	// Work counted while replaying.
	solves, dualIters, solvedItems int
}

// newReplay builds the per-SBS solvers, one core.newsubproblem span each.
func newReplay(tr *tracer, inst *model.Instance, gamma float64, maxSweeps int) (*replay, error) {
	r := &replay{inst: inst, tr: tr, items: solveItems(inst), gamma: gamma, maxSweeps: maxSweeps}
	r.subs = make([]*core.Subproblem, inst.N)
	for n := range r.subs {
		s := tr.push("core.newsubproblem")
		sub, err := core.NewSubproblem(inst, n, core.DefaultSubproblemConfig())
		tr.pop(s)
		if err != nil {
			return nil, err
		}
		r.subs[n] = sub
	}
	return r, nil
}

func (r *replay) solve(n int, yMinus model.Mat) (*core.Result, error) {
	s := r.tr.push("core.solve")
	res, err := r.subs[n].Solve(yMinus)
	r.tr.pop(s)
	if err != nil {
		return nil, err
	}
	r.solves++
	r.dualIters += res.DualIters
	r.solvedItems += r.items[n]
	return res, nil
}

// gaussSeidel replays the Gauss-Seidel engine from st to the end of the run.
func (r *replay) gaussSeidel(st *core.SweepState) (*core.RunResult, error) {
	tr, inst := r.tr, r.inst
	res := &core.RunResult{History: st.History, Sweeps: len(st.History)}
	yMinus := inst.NewUFMat()
	for sweep := st.Sweep; sweep < r.maxSweeps; sweep++ {
		first := 0
		if sweep == st.Sweep {
			first = st.Phase
		}
		for pi := first; pi < len(st.Order); pi++ {
			n := st.Order[pi]
			st.Tracker.BeginPhase()
			s := tr.push("model.tracker.yminus")
			st.Tracker.YMinusInto(inst, st.Y, n, yMinus)
			tr.pop(s)
			sub, err := r.solve(n, yMinus)
			if err != nil {
				return nil, err
			}
			upload := sub.Routing
			if r.perturb != nil {
				s = tr.push("core.lppm.perturb")
				upload, err = r.perturb(n, sub.Routing)
				tr.pop(s)
				if err != nil {
					return nil, err
				}
			}
			s = tr.push("model.policy.setrow")
			st.X.SetRow(n, sub.Cache)
			tr.pop(s)
			s = tr.push("model.tracker.install")
			st.Tracker.Install(inst, st.Y, n, yMinus, upload)
			tr.pop(s)
		}
		if r.endSweep(st, res, sweep) {
			break
		}
		if r.snapshot != nil {
			if err := r.snapshot(st, res, sweep+1); err != nil {
				return nil, err
			}
		}
	}
	res.Solution = st.Best
	return res, nil
}

// jacobi replays the reference Jacobi engine from the all-zero state.
func (r *replay) jacobi(st *core.SweepState) (*core.RunResult, error) {
	tr, inst := r.tr, r.inst
	res := &core.RunResult{}
	yMinus := inst.NewUFMat()
	next := model.NewRoutingPolicy(inst)
	for sweep := 0; sweep < r.maxSweeps; sweep++ {
		for n := 0; n < inst.N; n++ {
			s := tr.push("model.tracker.yminus")
			st.Tracker.YMinusInto(inst, st.Y, n, yMinus)
			tr.pop(s)
			sub, err := r.solve(n, yMinus)
			if err != nil {
				return nil, err
			}
			s = tr.push("model.policy.setrow")
			st.X.SetRow(n, sub.Cache)
			tr.pop(s)
			s = tr.push("model.policy.setsbs")
			next.SetSBS(n, sub.Routing)
			tr.pop(s)
		}
		s := tr.push("model.policy.swap")
		st.Y.Swap(next)
		tr.pop(s)
		st.Tracker.BeginPhase()
		for n := 0; n < inst.N; n++ {
			st.Tracker.MarkBlockDirty(n)
		}
		s = tr.push("model.tracker.rebuild_rows")
		st.Tracker.RebuildRows(inst, st.Y, 0, inst.U)
		tr.pop(s)
		s = tr.push("model.tracker.repair_rows")
		st.Tracker.RepairOverserveRows(inst, st.Y, 0, inst.U)
		tr.pop(s)
		if r.endSweep(st, res, sweep) {
			break
		}
	}
	res.Solution = st.Best
	return res, nil
}

// endSweep is core.Driver's per-sweep epilogue: evaluate the cost, keep the
// cheapest solution, apply the γ stop rule. It reports whether to stop.
func (r *replay) endSweep(st *core.SweepState, res *core.RunResult, sweep int) bool {
	tr := r.tr
	s := tr.push("model.cost")
	cost := model.TotalServingCostFromAggregate(r.inst, st.Y, st.Tracker.Aggregate())
	tr.pop(s)
	res.History = append(res.History, cost.Total)
	res.Sweeps = sweep + 1
	if st.Best == nil || cost.Total < st.Best.Cost.Total {
		s = tr.push("model.policy.clone")
		st.Best = &model.Solution{Caching: st.X.Clone(), Routing: st.Y.Clone(), Cost: cost}
		tr.pop(s)
	}
	if cost.Total > 0 && math.Abs(st.PrevCost-cost.Total)/cost.Total <= r.gamma {
		res.Converged = true
		st.PrevCost = cost.Total
		return true
	}
	st.PrevCost = cost.Total
	return false
}

// identity returns the SBS order 0..n-1.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
