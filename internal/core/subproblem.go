// Package core implements the paper's two contributions: the distributed
// Gauss-Seidel algorithm (Algorithm 1, "DUA" — Distributed Updating
// Algorithm) that jointly optimizes caching and routing, and the LPPM
// privacy mechanism layered on the routing uploads.
//
// The package is organized bottom-up:
//
//   - subproblem.go solves the per-SBS problem P_n (eq. 10-14) by
//     Lagrangian dual decomposition: the coupling y ≤ x is relaxed with
//     multipliers μ (eq. 15-17); the caching sub-problem (eq. 18) is solved
//     by an integral greedy (Theorem 1), the routing sub-problem (eq. 20)
//     by a fractional knapsack, and μ follows the projected sub-gradient
//     update (eq. 21-23). A primal-recovery pass turns the dual iterates
//     into a feasible, high-quality (x_n, y_n) pair.
//   - coordinator.go runs Algorithm 1's synchronized sweep over SBSs,
//     optionally applying LPPM to every routing upload.
//   - exact.go provides an exhaustive P_n solver for small instances,
//     used by tests to certify the dual method's solution quality.
//
// Everything runs on the flat tensor substrate of internal/model: routing
// blocks are model.Mat (contiguous U×F), and each Subproblem owns a
// preallocated workspace so that repeated Solve calls — the access pattern
// of the Gauss-Seidel sweep — perform zero heap allocations.
package core

import (
	"fmt"
	"math"
	"sort"

	"edgecache/internal/model"
)

// SubproblemConfig tunes the dual-decomposition solver for P_n.
type SubproblemConfig struct {
	// DualIters is K, the number of sub-gradient iterations.
	DualIters int
	// Alpha is the step-size decay in η(k) = 1/(1 + α·k) (eq. 22).
	Alpha float64
	// StepScale multiplies η(k). The paper leaves the absolute step scale
	// implicit; the multipliers μ live on the scale of d̂·λ, so the scale
	// is calibrated per-SBS from the instance when left at 0 (auto).
	StepScale float64
	// MaxCandidates bounds the distinct cache vectors retained for primal
	// recovery. 0 means the default (8).
	MaxCandidates int
}

// DefaultSubproblemConfig returns the configuration used by the experiment
// harness.
func DefaultSubproblemConfig() SubproblemConfig {
	return SubproblemConfig{DualIters: 60, Alpha: 0.2}
}

func (c SubproblemConfig) withDefaults() SubproblemConfig {
	if c.DualIters <= 0 {
		c.DualIters = 60
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.2
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 8
	}
	return c
}

// Subproblem solves P_n for one SBS. It precomputes the SBS's item list
// (linked (u,f) pairs with positive demand) once and can then be solved
// repeatedly against different aggregate routings y_{-n}, which is exactly
// the access pattern of the Gauss-Seidel sweep. All scratch state lives in
// a preallocated workspace, so warm Solve calls allocate nothing.
//
// A Subproblem is NOT safe for concurrent use: Solve, SolveExact and
// RoutingGivenCache share the workspace. Give each goroutine its own
// Subproblem (the coordinator and the sim agents already do).
type Subproblem struct {
	inst *model.Instance
	n    int
	cfg  SubproblemConfig
	// items enumerates the SBS's servable (u,f) pairs.
	items []item
	// densityOrder lists item indices sorted by density descending (ties
	// by index). The density ranking is static, so the routing knapsack
	// for a fixed cache never needs a per-call sort.
	densityOrder []int
	// stepScale is the resolved sub-gradient step scale.
	stepScale float64
	// ws is the reusable solve workspace.
	ws solveWorkspace
	// densitySorter is the reusable sort.Sort adapter for densityOrder;
	// living in the struct keeps the one-time constructor sort — and any
	// future re-sort — free of the per-call closure allocation that
	// sort.Slice would cost.
	densitySorter densitySorter
	// memo is the dirty-set fast path: the epoch key of the tracker state
	// ws.result was solved against (see memoHit).
	memo solveMemo
}

// solveMemo records which tracker state the workspace result answers.
// Identical key ⇒ the y_{-n} this SBS would derive is bitwise identical
// ⇒ the deterministic solver would recompute the identical result, so the
// engines return ws.result verbatim instead. The memo is rebuilt, never
// serialized: a resumed or reset tracker bumps its generation and every
// key goes stale.
type solveMemo struct {
	valid bool
	// tracker identifies the tracker the key was read from; a different
	// run (Restarts, a fresh coordinator state) has a different tracker.
	tracker *model.AggregateTracker
	gen     uint64
	// rowMax is LinkedRowEpochMax at solve time: epochs only grow, so an
	// equal max proves no linked aggregate row changed since.
	rowMax uint64
	// block is the epoch of this SBS's own block (y_{-n} = agg − y_n
	// reads both halves).
	block uint64
}

// memoHit reports whether ws.result is still the exact best response to
// the state SBS n currently observes through t: same tracker incarnation
// and generation, no bitwise change to any linked aggregate row or to the
// SBS's own block since the result was computed.
//
//edgecache:noalloc
func (s *Subproblem) memoHit(t *model.AggregateTracker) bool {
	return s.memo.valid &&
		s.memo.tracker == t &&
		s.memo.gen == t.Gen() &&
		s.memo.block == t.BlockEpoch(s.n) &&
		s.memo.rowMax == t.LinkedRowEpochMax(s.inst, s.n)
}

// memoCapture records the epoch key of the state a just-completed Solve
// read. Engines call it after a successful Solve and before installing
// the result: the install's own bumps (if the round-trip changed bits)
// must invalidate the memo, because they change what this SBS observes.
//
//edgecache:noalloc
func (s *Subproblem) memoCapture(t *model.AggregateTracker) {
	s.memo = solveMemo{
		valid:   true,
		tracker: t,
		gen:     t.Gen(),
		rowMax:  t.LinkedRowEpochMax(s.inst, s.n),
		block:   t.BlockEpoch(s.n),
	}
}

// cachedResult returns the workspace result paired with the current memo.
// Only valid immediately after memoHit reported true.
//
//edgecache:noalloc
func (s *Subproblem) cachedResult() *Result { return &s.ws.result }

// memoInvalidate drops the memo. The engines call it (for every SBS) when
// a sweep aborts mid-round: the hit fast paths rely on "memoHit ⇒ the
// cached routing is bitwise equal to the currently installed block", an
// invariant only a completed round establishes — a capture from an aborted
// round answers the current tracker state but was never installed.
//
//edgecache:noalloc
func (s *Subproblem) memoInvalidate() { s.memo = solveMemo{} }

// item is one servable (u,f) pair from SBS n's perspective.
type item struct {
	u, f   int
	lambda float64
	// gain is (d̂_u − d_nu)·λ_uf: the cost saved by fully serving the pair
	// at the edge instead of the backhaul. The paper assumes d̂ ≫ d, so
	// gains are typically positive.
	gain float64
	// density is gain per unit of bandwidth, (d̂_u − d_nu).
	density float64
}

// solveWorkspace holds every buffer a Solve call touches. Sized once in
// NewSubproblem; nothing here escapes to the caller except result, whose
// ownership contract is documented on Solve.
type solveWorkspace struct {
	caps     []float64 // per-item residual capacity for this solve
	mu       []float64 // dual multipliers
	yDual    []float64 // routing iterate of the dual loop
	score    []float64 // per-content multiplier mass (len F)
	scoreIdx []int     // cachingStep sort buffer (cap F)
	order    []int     // routingStep eligible-item buffer (cap #items)
	ratio    []float64 // routingStep per-item cost ratio w/λ
	xStep    []bool    // cachingStep output (len F)
	greedyX  []bool    // greedyCache output (len F)
	workX    []bool    // localSearch mutation buffer (len F)
	yA, yB   []float64 // double-buffered routing evaluations
	scratchY []float64 // gain-only routing evaluations
	pool     candidatePool
	result   Result

	scoreSorter scoreSorter
	ratioSorter ratioSorter
}

// NewSubproblem builds the solver for SBS n.
func NewSubproblem(inst *model.Instance, n int, cfg SubproblemConfig) (*Subproblem, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if n < 0 || n >= inst.N {
		return nil, fmt.Errorf("core: SBS index %d outside [0,%d)", n, inst.N)
	}
	cfg = cfg.withDefaults()
	s := &Subproblem{inst: inst, n: n, cfg: cfg}
	var maxDensity float64
	for u := 0; u < inst.U; u++ {
		if !inst.Links[n][u] {
			continue
		}
		density := inst.BSCost[u] - inst.EdgeCost[n][u]
		if density > maxDensity {
			maxDensity = density
		}
		for f := 0; f < inst.F; f++ {
			lambda := inst.Demand[u][f]
			if lambda <= 0 {
				continue
			}
			s.items = append(s.items, item{
				u: u, f: f, lambda: lambda,
				gain:    density * lambda,
				density: density,
			})
		}
	}
	s.stepScale = cfg.StepScale
	if s.stepScale <= 0 {
		// μ must climb to the scale of the routing coefficients
		// ((d̂−d)·λ ≈ density·λ) within a handful of iterations; scale the
		// step by the largest per-unit density so convergence speed is
		// instance-independent.
		s.stepScale = maxDensity
		if s.stepScale <= 0 {
			s.stepScale = 1
		}
	}

	s.densityOrder = make([]int, len(s.items))
	for i := range s.densityOrder {
		s.densityOrder[i] = i
	}
	s.sortDensityOrder()

	ni := len(s.items)
	s.ws = solveWorkspace{
		caps:     make([]float64, ni),
		mu:       make([]float64, ni),
		yDual:    make([]float64, ni),
		score:    make([]float64, inst.F),
		scoreIdx: make([]int, 0, inst.F),
		order:    make([]int, 0, ni),
		ratio:    make([]float64, ni),
		xStep:    make([]bool, inst.F),
		greedyX:  make([]bool, inst.F),
		workX:    make([]bool, inst.F),
		yA:       make([]float64, ni),
		yB:       make([]float64, ni),
		scratchY: make([]float64, ni),
		result:   Result{Cache: make([]bool, inst.F), Routing: model.NewMat(inst.U, inst.F)},
	}
	s.ws.pool = newCandidatePool(cfg.MaxCandidates, inst.F)
	return s, nil
}

// Result is the outcome of one P_n solve.
type Result struct {
	// Cache is x_n (length F) and Routing y_n (U×F).
	Cache []bool
	// Routing is the raw pre-LPPM best response: per-MU routing shares
	// reveal which users requested what (§IV), so privflow requires every
	// egress of this field to pass an LPPM sanitizer first.
	//
	//edgecache:private pre-LPPM per-MU routing shares
	Routing model.Mat
	// Gain is the serving-cost reduction Σ (d̂−d)·λ·y achieved versus
	// routing nothing; the coordinator uses it for reporting only.
	Gain float64
	// DualIters is the number of sub-gradient iterations executed.
	DualIters int
}

// Solve computes SBS n's best response to the aggregate routing yMinus
// (U×F, the portion of each demand already served by the other SBSs). The
// returned policy satisfies the cache capacity, bandwidth, box and
// no-overserve constraints, and routing only touches cached contents.
//
// Workspace-reuse contract: the returned Result (Cache and Routing
// included) is owned by the Subproblem and is overwritten by the next
// Solve/SolveExact call. Callers must copy anything they retain —
// RoutingPolicy.SetSBS and CachingPolicy.SetRow both copy.
//
//edgecache:noalloc
func (s *Subproblem) Solve(yMinus model.Mat) (*Result, error) {
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F {
		return nil, fmt.Errorf("core: yMinus is %dx%d, want U=%d F=%d",
			yMinus.U, yMinus.F, s.inst.U, s.inst.F)
	}

	ws := &s.ws
	// Residual capacity per item: y_nuf ≤ clamp(1 − y_{-n,uf}, 0, 1),
	// which enforces the coupling constraint (4) inside the block update.
	caps := ws.caps
	for i, it := range s.items {
		caps[i] = clamp01(1 - yMinus.At(it.u, it.f))
	}

	// Dual loop (eq. 21-23).
	mu := ws.mu // μ_uf ≥ 0, one per servable pair
	for i := range mu {
		mu[i] = 0
	}
	y := ws.yDual
	scoreBuf := ws.score
	ws.pool.reset()
	iters := 0
	for k := 0; k < s.cfg.DualIters; k++ {
		iters++
		// Caching sub-problem (eq. 18): maximize Σ_f x_f·Σ_u μ_uf under
		// Σ x_f ≤ C_n — integral greedy over per-content scores.
		for f := range scoreBuf {
			scoreBuf[f] = 0
		}
		for i, it := range s.items {
			scoreBuf[it.f] += mu[i]
		}
		x := s.cachingStep(scoreBuf)
		ws.pool.add(x)

		// Routing sub-problem (eq. 20): fractional knapsack with
		// coefficients w = (d−d̂)·λ + μ over the bandwidth budget.
		s.routingStep(y, mu, caps)

		// Projected sub-gradient update μ ← [μ + η·(y − x)]⁺ (eq. 21-23).
		eta := s.stepScale / (1 + s.cfg.Alpha*float64(k))
		done := true
		for i, it := range s.items {
			g := y[i]
			if x[it.f] {
				g -= 1
			}
			if g > 1e-9 {
				done = false
			}
			mu[i] = math.Max(0, mu[i]+eta*g)
		}
		if done && k >= 1 {
			// The relaxed constraint y ≤ x holds, so the current primal
			// pair is feasible; further dual iterations cannot improve it.
			break
		}
	}

	// Primal recovery: for every distinct cache vector seen, compute the
	// exact optimal routing given that cache and keep the best.
	best := s.recoverPrimal(caps)
	best.DualIters = iters
	return best, nil
}

// Multipliers returns a copy of the dual multipliers μ as left by the most
// recent Solve (zeros before the first). One entry per servable item, in
// item order. Solve cold-starts μ, so they never influence a later solve;
// checkpoints do not capture them.
//
// The multipliers are derived from raw per-item demand pressure, so they
// are a privacy source: privflow flags any egress that has not passed an
// LPPM sanitizer.
//
//edgecache:private raw dual multipliers derived from per-MU demand
func (s *Subproblem) Multipliers() []float64 {
	return append([]float64(nil), s.ws.mu...)
}

// cachingStep solves eq. 18: pick the C_n contents with the largest
// positive multiplier mass. Ties at zero are left uncached (they earn
// nothing in the dual); primal recovery fills free capacity greedily. The
// returned vector is the workspace's xStep buffer.
func (s *Subproblem) cachingStep(score []float64) []bool {
	ws := &s.ws
	x := ws.xStep
	for f := range x {
		x[f] = false
	}
	capN := s.inst.CacheCap[s.n]
	if capN == 0 {
		return x
	}
	idx := ws.scoreIdx[:0]
	for f, sc := range score {
		if sc > 0 {
			idx = append(idx, f)
		}
	}
	ws.scoreSorter.idx = idx
	ws.scoreSorter.score = score
	sort.Sort(&ws.scoreSorter)
	if len(idx) > capN {
		idx = idx[:capN]
	}
	for _, f := range idx {
		x[f] = true
	}
	return x
}

// routingStep solves eq. 20 in place: minimize Σ (w_i)·y_i with
// w_i = −gain_i + μ_i, subject to Σ λ_i·y_i ≤ B_n and 0 ≤ y_i ≤ caps_i.
// Only negative-coefficient items are worth serving; the optimal solution
// of this LP fills them in increasing w/λ order (fractional knapsack).
func (s *Subproblem) routingStep(y, mu, caps []float64) {
	ws := &s.ws
	order := ws.order[:0]
	for i := range s.items {
		y[i] = 0
		w := -s.items[i].gain + mu[i]
		if w < 0 && caps[i] > 0 {
			ws.ratio[i] = w / s.items[i].lambda
			order = append(order, i)
		}
	}
	ws.ratioSorter.order = order
	ws.ratioSorter.ratio = ws.ratio
	sort.Sort(&ws.ratioSorter)
	budget := s.inst.Bandwidth[s.n]
	for _, i := range order {
		if budget <= 0 {
			break
		}
		it := s.items[i]
		amount := math.Min(caps[i], budget/it.lambda)
		y[i] = amount
		budget -= amount * it.lambda
	}
}

// routingGivenCacheInto computes the exact optimal routing for a fixed
// cache vector x into the caller-supplied per-item buffer y and returns
// the gain. The eligible items are walked in the precomputed density order
// (the knapsack's fill order is static), so a call is one linear scan with
// no sort and no allocation.
func (s *Subproblem) routingGivenCacheInto(x []bool, caps, y []float64) float64 {
	for i := range y {
		y[i] = 0
	}
	budget := s.inst.Bandwidth[s.n]
	var gain float64
	for _, i := range s.densityOrder {
		if budget <= 1e-12 {
			break
		}
		it := s.items[i]
		if !x[it.f] || caps[i] <= 0 || it.gain <= 0 {
			continue
		}
		amount := math.Min(caps[i], budget/it.lambda)
		y[i] = amount
		budget -= amount * it.lambda
		gain += amount * it.gain
	}
	return gain
}

// RoutingGivenCache computes the exact optimal routing for a fixed cache
// vector x: a fractional knapsack over the cached, linked pairs with
// per-item capacity caps. It returns a fresh flat item routing and the
// total gain. This is both the primal-recovery engine and, composed with a
// cache search, an independent P_n solver.
func (s *Subproblem) RoutingGivenCache(x []bool, caps []float64) ([]float64, float64) {
	y := make([]float64, len(s.items))
	gain := s.routingGivenCacheInto(x, caps, y)
	return y, gain
}

// BestRoutingForCache computes the optimal routing block (U×F) for a fixed
// cache vector against the aggregate routing of the other SBSs. Baselines
// use it to route on externally chosen caches (e.g. LRFU's) with exactly
// the same knapsack the distributed algorithm uses, so cost comparisons
// isolate the caching decision.
func (s *Subproblem) BestRoutingForCache(x []bool, yMinus model.Mat) (model.Mat, error) {
	if len(x) != s.inst.F {
		return model.Mat{}, fmt.Errorf("core: cache vector has %d entries, want F=%d", len(x), s.inst.F)
	}
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F {
		return model.Mat{}, fmt.Errorf("core: yMinus is %dx%d, want U=%d F=%d",
			yMinus.U, yMinus.F, s.inst.U, s.inst.F)
	}
	caps := make([]float64, len(s.items))
	for i, it := range s.items {
		caps[i] = clamp01(1 - yMinus.At(it.u, it.f))
	}
	y, _ := s.RoutingGivenCache(x, caps)
	block := model.NewMat(s.inst.U, s.inst.F)
	for i, it := range s.items {
		block.Set(it.u, it.f, y[i])
	}
	return block, nil
}

// recoverPrimal evaluates every candidate cache vector (plus a greedy
// marginal-gain candidate) with exact routing and returns the best
// feasible pair as a Result in matrix form. The Result is workspace-owned.
func (s *Subproblem) recoverPrimal(caps []float64) *Result {
	ws := &s.ws
	// The greedy candidate is evaluated unconditionally: it must not be
	// crowded out when the dual loop already produced MaxCandidates
	// distinct vectors.
	best, cand := ws.yA, ws.yB

	var bestGain float64 = -1
	var bestX []bool
	if gain := s.routingGivenCacheInto(s.greedyCache(caps), caps, best); gain > bestGain {
		bestGain, bestX = gain, ws.greedyX
	}
	for ci := 0; ci < ws.pool.n; ci++ {
		x := ws.pool.list[ci]
		gain := s.routingGivenCacheInto(x, caps, cand)
		if gain > bestGain {
			bestGain, bestX = gain, x
			best, cand = cand, best
		}
	}
	bestX, best, bestGain = s.localSearch(bestX, best, cand, bestGain, caps)

	res := &ws.result
	copy(res.Cache, bestX)
	res.Routing.Zero()
	for i, it := range s.items {
		res.Routing.Set(it.u, it.f, best[i])
	}
	res.Gain = bestGain
	res.DualIters = 0
	return res
}

// localSearch improves a cache vector by 1-swap exchanges (replace one
// cached content with one uncached content) until no swap improves the
// exact routing gain. The greedy candidate is near-optimal but not optimal
// (submodular greedy); swaps close the residual gap on the instances this
// repository targets. best and cand are the double-buffered routing
// evaluations; the returned slice is whichever buffer holds the winner.
func (s *Subproblem) localSearch(x []bool, best, cand []float64, gain float64, caps []float64) ([]bool, []float64, float64) {
	if x == nil {
		return x, best, gain
	}
	const maxPasses = 4
	work := s.ws.workX
	copy(work, x)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for out := 0; out < s.inst.F; out++ {
			if !work[out] {
				continue
			}
			for in := 0; in < s.inst.F; in++ {
				if work[in] || in == out {
					continue
				}
				work[out], work[in] = false, true
				candGain := s.routingGivenCacheInto(work, caps, cand)
				if candGain > gain+1e-9 {
					gain = candGain
					best, cand = cand, best
					copy(x, work)
					improved = true
					break // 'out' is no longer cached; rescan
				}
				work[out], work[in] = true, false
			}
		}
		if !improved {
			break
		}
	}
	return x, best, gain
}

// greedyCache builds a cache vector by repeatedly adding the content with
// the largest marginal routing gain (a submodular-style greedy). It is the
// fallback candidate that keeps primal recovery strong when the dual
// multipliers have not yet separated the useful contents. The returned
// vector is the workspace's greedyX buffer.
func (s *Subproblem) greedyCache(caps []float64) []bool {
	ws := &s.ws
	x := ws.greedyX
	for f := range x {
		x[f] = false
	}
	capN := s.inst.CacheCap[s.n]
	if capN == 0 || len(s.items) == 0 {
		return x
	}
	baseGain := s.routingGivenCacheInto(x, caps, ws.scratchY)
	for picked := 0; picked < capN; picked++ {
		bestF, bestGain := -1, baseGain
		for f := 0; f < s.inst.F; f++ {
			if x[f] {
				continue
			}
			x[f] = true
			gain := s.routingGivenCacheInto(x, caps, ws.scratchY)
			x[f] = false
			if gain > bestGain+1e-12 {
				bestF, bestGain = f, gain
			}
		}
		if bestF == -1 {
			break // no content adds gain (bandwidth exhausted or no demand)
		}
		x[bestF] = true
		baseGain = bestGain
	}
	return x
}

// candidatePool deduplicates cache vectors up to a size cap, with every
// slot preallocated so add never touches the heap.
type candidatePool struct {
	max  int
	n    int
	list [][]bool
}

func newCandidatePool(max, f int) candidatePool {
	p := candidatePool{max: max, list: make([][]bool, max)}
	for i := range p.list {
		p.list[i] = make([]bool, f)
	}
	return p
}

func (c *candidatePool) reset() { c.n = 0 }

func (c *candidatePool) add(x []bool) {
	if c.n >= c.max {
		return
	}
	for i := 0; i < c.n; i++ {
		if boolsEqual(c.list[i], x) {
			return
		}
	}
	copy(c.list[c.n], x)
	c.n++
}

func boolsEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortDensityOrder (re)establishes the density-descending order of
// densityOrder through the reusable sorter, so a sort costs no closure
// allocation.
//
//edgecache:noalloc
func (s *Subproblem) sortDensityOrder() {
	s.densitySorter.order = s.densityOrder
	s.densitySorter.items = s.items
	sort.Sort(&s.densitySorter)
}

// densitySorter orders item indices by density descending, ties by index.
type densitySorter struct {
	order []int
	items []item
}

func (s *densitySorter) Len() int { return len(s.order) }
func (s *densitySorter) Less(a, b int) bool {
	ia, ib := s.order[a], s.order[b]
	if s.items[ia].density != s.items[ib].density { //edgecache:lint-ignore floateq sort comparator must be a strict weak order; epsilon ties would break transitivity
		return s.items[ia].density > s.items[ib].density
	}
	return ia < ib
}
func (s *densitySorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

// scoreSorter orders content indices by score descending, ties by index.
type scoreSorter struct {
	idx   []int
	score []float64
}

func (s *scoreSorter) Len() int { return len(s.idx) }
func (s *scoreSorter) Less(a, b int) bool {
	ia, ib := s.idx[a], s.idx[b]
	if s.score[ia] != s.score[ib] { //edgecache:lint-ignore floateq sort comparator must be a strict weak order; epsilon ties would break transitivity
		return s.score[ia] > s.score[ib]
	}
	return ia < ib
}
func (s *scoreSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// ratioSorter orders item indices by precomputed w/λ ascending, ties by
// index.
type ratioSorter struct {
	order []int
	ratio []float64
}

func (s *ratioSorter) Len() int { return len(s.order) }
func (s *ratioSorter) Less(a, b int) bool {
	ia, ib := s.order[a], s.order[b]
	if s.ratio[ia] != s.ratio[ib] { //edgecache:lint-ignore floateq sort comparator must be a strict weak order; epsilon ties would break transitivity
		return s.ratio[ia] < s.ratio[ib]
	}
	return ia < ib
}
func (s *ratioSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
