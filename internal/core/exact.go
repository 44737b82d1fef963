package core

import (
	"fmt"

	"edgecache/internal/model"
)

// SolveExact computes the exact optimum of P_n by exhausting every cache
// set of size ≤ C_n and solving the routing knapsack for each. It is
// exponential in F and exists to certify the dual solver's quality in
// tests; callers must keep F small (the solver refuses F > 20).
//
// Unlike Solve, the returned Result is freshly allocated and owned by the
// caller (exhaustive search is never on the hot path).
func (s *Subproblem) SolveExact(yMinus model.Mat) (*Result, error) {
	if s.inst.F > 20 {
		return nil, fmt.Errorf("core: SolveExact limited to F ≤ 20, got %d", s.inst.F)
	}
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F {
		return nil, fmt.Errorf("core: yMinus is %dx%d, want U=%d F=%d",
			yMinus.U, yMinus.F, s.inst.U, s.inst.F)
	}
	s = s.eagerCopy(yMinus)
	s.findHeads()

	capN := s.inst.CacheCap[s.n]
	bestGain := -1.0
	var bestX []bool
	x := make([]bool, s.inst.F)
	for mask := 0; mask < 1<<s.inst.F; mask++ {
		if popcount(mask) > capN {
			continue
		}
		for f := 0; f < s.inst.F; f++ {
			x[f] = mask&(1<<f) != 0
		}
		if gain, _ := s.walk(s.cacheSet(x), nil); gain > bestGain {
			bestGain = gain
			bestX = append([]bool(nil), x...)
		}
	}
	routing, _ := s.routingGivenCache(bestX)
	return &Result{Cache: bestX, Routing: routing, Gain: bestGain}, nil
}

func popcount(v int) int {
	count := 0
	for v != 0 {
		v &= v - 1
		count++
	}
	return count
}
