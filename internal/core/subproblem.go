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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"edgecache/internal/model"
)

// SubproblemConfig tunes the dual-decomposition solver for P_n.
type SubproblemConfig struct {
	// DualIters is K, the number of sub-gradient iterations. 0 means
	// defaultDualIters.
	DualIters int
}

// DefaultSubproblemConfig returns the configuration used by the experiment
// harness.
func DefaultSubproblemConfig() SubproblemConfig {
	return SubproblemConfig{DualIters: defaultDualIters}
}

const (
	// defaultDualIters is the default K.
	defaultDualIters = 60
	// stepDecay is α in the step size η(k) = 1/(1 + α·k) (eq. 22).
	stepDecay = 0.2
	// maxCandidates bounds the distinct cache vectors retained for primal
	// recovery.
	maxCandidates = 8
	// staticBlock is how many positions of the density order the static
	// fill order pulls into its heap at a time (see staticAt). 64 was
	// measured at the dense shape.
	staticBlock = 64
)

// Subproblem solves P_n for one SBS. It precomputes the SBS's item list
// (linked (u,f) pairs with positive demand) once and can then be solved
// repeatedly against different aggregate routings y_{-n}, which is exactly
// the access pattern of the Gauss-Seidel sweep. All scratch state lives in
// a preallocated workspace, so warm Solve calls allocate nothing. A solve
// sets up in O(#items); after that, each dual iteration works on the few
// items it has routed (see dualLoop), and primal recovery merges the
// density-ordered item lists of the cached contents only, stopping where
// the bandwidth runs out (see walk). A solve computes an item's residual
// capacity only when it first reads it (see capOf), and the last completed
// Solve is also the engines' solve memo: a later phase whose y_{-n} gives
// every item that solve read the same capacity bits is answered from the
// workspace (see answers).
//
// A Subproblem is NOT safe for concurrent use: Solve, SolveExact and
// BestRoutingForCache share the workspace. Give each goroutine its own
// Subproblem (the coordinator and the sim agents already do). Building
// one reads only the instance, so the solvers of distinct SBSs can be
// built concurrently; NewCoordinator builds them on the parallel
// engine's workers (see buildSubproblems).
type Subproblem struct {
	inst *model.Instance
	n    int
	cfg  SubproblemConfig
	// items enumerates the SBS's servable (u,f) pairs.
	items []item
	// The density order ranks the items by density descending, ties by
	// index; an item's rank is its position. The ranking is static, so
	// the routing knapsack for a fixed cache is one walk along it, and
	// only the cached contents' items take part. posItem maps a position
	// to its item. Content f's positions, ascending, are
	// contentPos[contentStart[f]:contentStart[f+1]]: one counting sort of
	// the order by content, so a walk merges the cached contents' lists
	// instead of scanning the whole order (see walk).
	posItem      []int32
	contentPos   []int32
	contentStart []int32
	// stepScale is the sub-gradient step scale, calibrated from the SBS's
	// largest per-unit density.
	stepScale float64
	// ws is the reusable solve workspace. Its read list, caps and result
	// double as the solve memo: after a completed Solve they hold the
	// capacities it read and the answer it gave (see answers).
	ws solveWorkspace
	// solves and skips count this SBS's engine answers (respond): fresh
	// solves and memo hits. The coordinator sums them over its SBSs for
	// RunResult.Work.
	solves, skips int
}

// answers reports whether ws.result is Solve's answer to yMinus: a Solve
// has completed, and every item on its read list has, against yMinus, the
// bits of the capacity that Solve read. Solve reads yMinus only through
// the capacities of that list and is deterministic in them (μ cold-starts,
// and the touched set and the candidate pool are reset), so a fresh Solve
// would read the same items in the same order, get the same bits and
// return ws.result bit for bit, whatever the capacities it never read. The
// key is what the solve read, not how the engine got there, so aborted
// rounds, restores and restarts need no invalidation. A yMinus of the
// wrong shape never hits; Solve rejects it.
//
//edgecache:noalloc
func (s *Subproblem) answers(yMinus model.Mat) bool {
	ws := &s.ws
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F || !ws.solved {
		return false
	}
	for _, i := range ws.read {
		if math.Float64bits(s.items[i].capacity(yMinus)) != math.Float64bits(ws.caps[i]) {
			return false
		}
	}
	return true
}

// respond is an engine's answer for this SBS against yMinus: with memo
// set, the workspace result when it already answers yMinus (a hit, counted
// in skips), and a fresh Solve otherwise (counted in solves). Either way
// the Result is workspace-owned, as Solve documents. Every engine answers
// through it, so the two counters are the run's whole memo accounting.
//
//edgecache:noalloc
func (s *Subproblem) respond(yMinus model.Mat, memo bool) (*Result, error) {
	if memo && s.answers(yMinus) {
		s.skips++
		return &s.ws.result, nil
	}
	s.solves++
	return s.Solve(yMinus)
}

// item is one servable (u,f) pair from SBS n's perspective, in 24 bytes:
// a Subproblem holds one per servable pair (about 4,200 at the dense
// shape), so setup writes mostly items and per-item buffers. u and f are
// int32, like the position lists. The density d̂_u − d_nu is not stored:
// setup ranks the items by it (posItem), and nothing reads it after.
type item struct {
	u, f   int32
	lambda float64
	// gain is (d̂_u − d_nu)·λ_uf: the cost saved by fully serving the pair
	// at the edge instead of the backhaul. The paper assumes d̂ ≫ d, so
	// gains are typically positive.
	gain float64
}

// capacity is the item's residual capacity against yMinus: y_nuf ≤
// clamp(1 − y_{-n,uf}, 0, 1), which enforces the coupling constraint (4)
// inside the block update. It is all that Solve reads of yMinus.
//
//edgecache:noalloc
func (it *item) capacity(yMinus model.Mat) float64 {
	return clamp01(1 - yMinus.At(int(it.u), int(it.f)))
}

// Bits of solveWorkspace.flags.
const (
	inT     uint8 = 1 << iota // the item is in the touched set T
	capRead                   // caps holds the item's capacity for this solve
)

// startCaps begins a solve's capacity reads against yMinus, in O(|read|):
// the previous reads are forgotten, so every capacity is computed afresh
// on its first read (see capOf). It voids the memo until a Solve
// completes, since the read list no longer describes ws.result.
//
//edgecache:noalloc
func (s *Subproblem) startCaps(yMinus model.Mat) {
	ws := &s.ws
	ws.solved = false
	for _, i := range ws.read {
		ws.flags[i] &^= capRead
	}
	ws.read = ws.read[:0]
	ws.yMinus = yMinus
}

// capOf returns item i's residual capacity against the y₋ₙ of this
// solve's startCaps. A solve reads only a small share of the capacities
// (the items its static order pulls, its fills reach and its walks visit),
// so each is computed on its first read and the item joins the read list,
// which is also the memo key (see answers).
//
//edgecache:noalloc
func (s *Subproblem) capOf(i int) float64 {
	if s.ws.flags[i]&capRead == 0 {
		return s.readCap(i)
	}
	return s.ws.caps[i]
}

// readCap is capOf's first read of item i, kept out of capOf so that the
// repeat reads inline.
//
//edgecache:noalloc
func (s *Subproblem) readCap(i int) float64 {
	ws := &s.ws
	ws.flags[i] |= capRead
	ws.caps[i] = s.items[i].capacity(ws.yMinus)
	// read has room for every item, and each joins it at most once.
	ws.read = ws.read[:len(ws.read)+1]
	ws.read[len(ws.read)-1] = int32(i)
	return ws.caps[i]
}

// staticKey is the item's knapsack key w/λ while μ = 0, w = −gain. The
// static order's pushes and its block bounds both compute it here, so a
// bound compares exactly with the keys it bounds.
func (it *item) staticKey() float64 { return -it.gain / it.lambda }

// solveWorkspace holds every buffer a Solve call touches. Sized once in
// NewSubproblem; nothing here escapes to the caller except result, whose
// ownership contract is documented on Solve.
//
// The dual loop works on the touched set T: the items routed at least
// once in the current solve, typically about ten out of thousands. μ and
// y are nonzero only on T, and every other item keeps its static knapsack
// key −gain/λ for the whole solve, so the per-iteration passes walk T and
// one static order serves the whole solve, pulled from the density order
// only as far as the fills read it (see staticAt).
type solveWorkspace struct {
	// caps[i] is item i's residual capacity against yMinus once this solve
	// has read it (flags[i]&capRead); read lists those items in read order
	// (cap #items). See capOf.
	caps   []float64
	yMinus model.Mat
	read   []int32
	solved bool      // a Solve completed: result answers the capacities on read
	mu     []float64 // dual multipliers; nonzero only on touched items
	yDual  []float64 // routing iterate of the dual loop; nonzero only on touched items
	// touched is T in ascending item order (cap #items); it shares one
	// allocation with read.
	touched []int32
	flags   []uint8 // per item: inT and capRead
	// static holds the static fill order, the eligible items (gain > 0,
	// cap > 0) by key −gain/λ, as far as this solve has pulled it: a
	// min-heap of the items pulled and not yet popped in static[:heapLen],
	// and the k-th pop at static[len(static)-1-k]. That popped tail is a
	// prefix of the order, shared by every iteration of a solve. pulled
	// counts the blocks of staticBlock positions of the density order
	// pushed onto the heap so far. Each item is pushed at most once, so
	// heapLen + popped ≤ #items = len(static).
	static          ratioHeap
	heapLen, popped int
	pulled          int
	// blockMin[b] is the least key −gain/λ of the items with gain > 0 at
	// positions ≥ b·staticBlock, a lower bound on every key the blocks from
	// b on can push; the last entry is a +Inf sentinel. Keys are static, so
	// the first solve fills it (bounded) and every later one reads it.
	blockMin []float64
	bounded  bool
	dyn      ratioHeap // routingFill's heap of touched items with μ > 0 (cap #items)
	// score is the per-content multiplier mass (len F), current on the
	// contents of T's items, the only ones cachingStep reads. xStep is
	// cachingStep's output (len F), true exactly on picks, the contents it
	// chose, best first (cap F).
	score   []float64
	picks   []int32
	xStep   []bool
	greedyX []bool // greedyCache output (len F)
	workX   []bool // localSearch mutation buffer (len F)
	// heads holds each content's first eligible (cap > 0, gain > 0) entry
	// of its position list under this solve's caps (len F).
	heads []cursor
	// set lists the contents of the cache being scored, in any order (cap
	// F+1: a greedy candidate is a full cache plus one), and cur holds
	// walk's merge cursors, one per set slot (len F+1).
	set    []int32
	cur    []cursor
	pool   candidatePool
	result Result
	// routedStop is the stop of the walk that filled result.Routing: every
	// nonzero of the block is an item of a cached content at a position
	// below it (see recoverPrimal).
	routedStop int32

	touchedSorter indexSorter
}

// cursor points into a content's position list: k indexes contentPos and
// pos is the position there, or #items once the list is spent.
type cursor struct{ k, pos int32 }

// NewSubproblem builds the solver for SBS n.
func NewSubproblem(inst *model.Instance, n int, cfg SubproblemConfig) (*Subproblem, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return newSubproblem(inst, n, cfg)
}

// newSubproblem is NewSubproblem for an instance the caller has already
// validated: NewCoordinator checks it once, not once per SBS.
func newSubproblem(inst *model.Instance, n int, cfg SubproblemConfig) (*Subproblem, error) {
	if n < 0 || n >= inst.N {
		return nil, fmt.Errorf("core: SBS index %d outside [0,%d)", n, inst.N)
	}
	if cfg.DualIters <= 0 {
		cfg.DualIters = defaultDualIters
	}
	s := &Subproblem{inst: inst, n: n, cfg: cfg}
	// Count first, so items is sized exactly.
	ni, linked := 0, 0
	for u := 0; u < inst.U; u++ {
		if !inst.Links[n][u] {
			continue
		}
		linked++
		for _, lambda := range inst.Demand[u] {
			if lambda > 0 {
				ni++
			}
		}
	}
	s.items = make([]item, 0, ni)
	// users holds each linked user's density and item range: a user's items
	// are contiguous in index order.
	type userItems struct {
		density    float64
		start, end int
	}
	users := make([]userItems, 0, linked)
	var maxDensity float64
	for u := 0; u < inst.U; u++ {
		if !inst.Links[n][u] {
			continue
		}
		density := inst.BSCost[u] - inst.EdgeCost[n][u]
		if density > maxDensity {
			maxDensity = density
		}
		start := len(s.items)
		for f := 0; f < inst.F; f++ {
			lambda := inst.Demand[u][f]
			if lambda <= 0 {
				continue
			}
			s.items = append(s.items, item{
				u: int32(u), f: int32(f), lambda: lambda,
				gain: density * lambda,
			})
		}
		users = append(users, userItems{density: density, start: start, end: len(s.items)})
	}
	// μ must climb to the scale of the routing coefficients
	// ((d̂−d)·λ ≈ density·λ) within a handful of iterations; scale the step
	// by the largest per-unit density so convergence speed is
	// instance-independent. The paper leaves the absolute scale implicit.
	s.stepScale = maxDensity
	if s.stepScale <= 0 {
		s.stepScale = 1
	}

	// Density is per user, so a stable sort of the users by density
	// descending, expanded into their item ranges, is the item order by
	// density descending with ties by index.
	slices.SortStableFunc(users, func(a, b userItems) int { return cmp.Compare(b.density, a.density) })
	s.posItem = make([]int32, 0, ni)
	for _, us := range users {
		for i := us.start; i < us.end; i++ {
			s.posItem = append(s.posItem, int32(i))
		}
	}

	s.ws = newSolveWorkspace(ni, inst.U, inst.F)
	s.indexContents()
	return s, nil
}

// indexContents builds the per-content position lists from posItem with
// one counting sort: count each content's items, take prefix sums, and
// deal the positions out in ascending order, so each list ascends.
func (s *Subproblem) indexContents() {
	start := make([]int32, s.inst.F+1)
	for i := range s.items {
		start[s.items[i].f+1]++
	}
	for f := 1; f < len(start); f++ {
		start[f] += start[f-1]
	}
	// Dealing advances start[f] to the end of f's list, which is where
	// f+1's begins; shifting by one slot restores the starts.
	s.contentPos = make([]int32, len(s.posItem))
	for p, i := range s.posItem {
		f := s.items[i].f
		s.contentPos[start[f]] = int32(p)
		start[f]++
	}
	copy(start[1:], start)
	start[0] = 0
	s.contentStart = start
}

// newSolveWorkspace sizes a workspace for ni items and a U×F instance.
// Setup's bytes are mostly per item: caps, mu and yDual (8 bytes each),
// flags (1), the capacities of touched and read (4 each) and of the
// static and dyn heaps (16 each), 65 bytes per item beside the 24-byte
// item itself; blockMin adds 8 bytes per staticBlock items, the
// per-content buffers are O(F), and the result's routing block is U×F.
// caps, mu, yDual and blockMin share one allocation, and touched and
// read another.
func newSolveWorkspace(ni, u, f int) solveWorkspace {
	nb := (ni + staticBlock - 1) / staticBlock
	floats := make([]float64, 3*ni+nb+1)
	ids := make([]int32, 2*ni)
	return solveWorkspace{
		caps:     floats[:ni:ni],
		mu:       floats[ni : 2*ni : 2*ni],
		yDual:    floats[2*ni : 3*ni : 3*ni],
		blockMin: floats[3*ni:],
		touched:  ids[:0:ni],
		read:     ids[ni:ni],
		flags:    make([]uint8, ni),
		static:   make(ratioHeap, ni),
		dyn:      make(ratioHeap, 0, ni),
		score:    make([]float64, f),
		picks:    make([]int32, 0, f),
		xStep:    make([]bool, f),
		greedyX:  make([]bool, f),
		workX:    make([]bool, f),
		heads:    make([]cursor, f),
		set:      make([]int32, 0, f+1),
		cur:      make([]cursor, f+1),
		pool:     newCandidatePool(maxCandidates, f),
		result:   Result{Cache: make([]bool, f), Routing: model.NewMat(u, f)},
	}
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
// Solve call. Callers must copy anything they retain —
// RoutingPolicy.SetSBS and CachingPolicy.SetRow both copy — and must not
// write to it: the engines answer later phases from it (see answers).
//
//edgecache:noalloc
func (s *Subproblem) Solve(yMinus model.Mat) (*Result, error) {
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F {
		return nil, fmt.Errorf("core: yMinus is %dx%d, want U=%d F=%d",
			yMinus.U, yMinus.F, s.inst.U, s.inst.F)
	}

	s.startCaps(yMinus)
	iters := s.dualLoop()

	// Primal recovery: for every distinct cache vector seen, compute the
	// exact optimal routing given that cache and keep the best.
	best := s.recoverPrimal()
	best.DualIters = iters
	s.ws.solved = true
	return best, nil
}

// dualLoop runs the sub-gradient iterations (eq. 21-23) against the
// residual capacities of this solve, leaving the distinct caching steps in
// the candidate pool, and returns the number of iterations run.
//
// An iteration costs O(|T| log |T| + |T|·C_n) plus the items its fill
// pops, where T is the set of items routed at least once in this solve.
// Outside T, μ = +0 and y = 0, and each pass leaves such an item as it is:
// adding +0 to a score changes nothing, μ ← max(0, 0 + η·g) with
// g ∈ {0, −1} stays +0, and g ≤ 0 cannot clear done. So the score and μ
// passes walk T in ascending item order, which keeps every score sum bit
// for bit the sum over all items. Only the contents of T's items can
// score above zero, and cachingStep reads no others, so only their
// scores are cleared and summed. An item outside T also
// keeps the knapsack key (−gain + 0)/λ for the whole solve, so
// routingFill merges one static order on that key, pulled lazily and kept
// for the whole solve (staticAt), with a per-iteration heap over T.
func (s *Subproblem) dualLoop() int {
	s.resetDual()
	ws := &s.ws
	mu := ws.mu // μ_uf ≥ 0, one per servable pair
	y := ws.yDual
	scoreBuf := ws.score
	ws.pool.reset()
	iters := 0
	for k := 0; k < s.cfg.DualIters; k++ {
		iters++
		// Caching sub-problem (eq. 18): maximize Σ_f x_f·Σ_u μ_uf under
		// Σ x_f ≤ C_n — integral greedy over per-content scores.
		for _, i := range ws.touched {
			scoreBuf[s.items[i].f] = 0
		}
		for _, i := range ws.touched {
			scoreBuf[s.items[i].f] += mu[i]
		}
		x := s.cachingStep(scoreBuf)
		ws.pool.add(x)

		// Routing sub-problem (eq. 20): fractional knapsack with
		// coefficients w = (d−d̂)·λ + μ over the bandwidth budget.
		s.routingFill(y, mu)

		// Projected sub-gradient update μ ← [μ + η·(y − x)]⁺ (eq. 21-23).
		eta := s.stepScale / (1 + stepDecay*float64(k))
		done := true
		for _, i := range ws.touched {
			g := y[i]
			if x[s.items[i].f] {
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
	return iters
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
// positive multiplier mass, ties by index. Ties at zero are left uncached
// (they earn nothing in the dual); primal recovery fills free capacity
// greedily. The returned vector is the workspace's xStep buffer.
//
// Only the contents of T's items can score above zero, so the candidates
// come from T, and only the previous step's picks are cleared from xStep.
// picks keeps the chosen contents in (score descending, index ascending)
// order, at most C_n of them: each candidate is inserted at its place, and
// one that lands past C_n is dropped, as is the last pick it pushes past
// C_n. xStep marks the picks, so a content T serves twice is taken once; a
// dropped one is never taken back, since every later pick precedes it.
func (s *Subproblem) cachingStep(score []float64) []bool {
	ws := &s.ws
	x := ws.xStep
	for _, f := range ws.picks {
		x[f] = false
	}
	capN := s.inst.CacheCap[s.n]
	picks := ws.picks[:0]
	for _, i := range ws.touched {
		f := s.items[i].f
		sc := score[f]
		if !(sc > 0) || x[f] {
			continue
		}
		j := len(picks)
		for j > 0 && ahead(sc, f, score[picks[j-1]], picks[j-1]) {
			j--
		}
		if j >= capN {
			continue
		}
		if len(picks) < capN {
			picks = picks[:len(picks)+1]
		} else {
			x[picks[len(picks)-1]] = false
		}
		copy(picks[j+1:], picks[j:len(picks)-1])
		picks[j] = f
		x[f] = true
	}
	ws.picks = picks
	return x
}

// ahead reports whether content f with score sf comes before content g
// with score sg in cachingStep's order: score descending, ties by index.
// Scores are never NaN, so the order is strict and total.
func ahead(sf float64, f int32, sg float64, g int32) bool {
	return sf > sg || !(sg > sf) && f < g
}

// resetDual starts a solve's dual state, in O(|T|): T empties (μ and y
// back to zero on it) and the static order restarts empty, for staticAt
// to pull against this solve's capacities. The first call fills the block
// bounds.
func (s *Subproblem) resetDual() {
	ws := &s.ws
	// Only the previous solve's touched items can hold a nonzero μ or y.
	for _, i := range ws.touched {
		ws.mu[i], ws.yDual[i] = 0, 0
		ws.flags[i] &^= inT
	}
	ws.touched = ws.touched[:0]
	ws.heapLen, ws.popped, ws.pulled = 0, 0, 0
	if !ws.bounded {
		s.fillBlockMin()
	}
}

// fillBlockMin computes blockMin as suffix minima over the density order.
func (s *Subproblem) fillBlockMin() {
	bm := s.ws.blockMin
	low := math.Inf(1)
	bm[len(bm)-1] = low
	for b := len(bm) - 2; b >= 0; b-- {
		for _, i := range s.posItem[b*staticBlock : min((b+1)*staticBlock, len(s.posItem))] {
			if it := &s.items[i]; it.gain > 0 {
				if k := it.staticKey(); k < low {
					low = k
				}
			}
		}
		bm[b] = low
	}
	s.ws.bounded = true
}

// routingFill solves eq. 20 in place: minimize Σ (w_i)·y_i with
// w_i = −gain_i + μ_i, subject to Σ λ_i·y_i ≤ B_n and 0 ≤ y_i ≤ caps_i.
// Only negative-coefficient items are worth serving; the optimal solution
// of this LP fills them in increasing w/λ order (fractional knapsack),
// ties by index. It returns the unspent budget.
//
// An eligible item with μ = 0 has its static key, so it comes from the
// walk along the static order (see staticAt); one with μ > 0 is in T and
// goes into a heap built for this call. The fill merges the two by
// (w/λ, index) until the budget is spent, so a call costs O(|T|) plus
// O(log) per filled item, and a sort of T when the fill adds to it. y must
// be zero outside T on entry; every item the fill reaches joins T.
func (s *Subproblem) routingFill(y, mu []float64) float64 {
	ws := &s.ws
	d := ws.dyn[:0]
	for _, i := range ws.touched {
		y[i] = 0
		if mu[i] > 0 { // μ = 0 leaves the item in the static walk
			if w := -s.items[i].gain + mu[i]; w < 0 && s.capOf(int(i)) > 0 {
				d = append(d, ratioEntry{ratio: w / s.items[i].lambda, i: int(i)})
			}
		}
	}
	d.init()
	t := ws.touched
	known := len(t)
	budget := s.inst.Bandwidth[s.n]
fill:
	for k := 0; budget > 0; {
		se, ok := s.staticAt(k)
		for ok && mu[se.i] > 0 { // re-keyed: d holds it if it is eligible
			k++
			se, ok = s.staticAt(k)
		}
		var i int
		switch {
		case ok && (len(d) == 0 || se.before(d[0])):
			i = se.i
			k++
		case len(d) > 0:
			i = d.pop().i
		default:
			break fill // nothing eligible is left
		}
		it := s.items[i]
		amount := math.Min(s.capOf(i), budget/it.lambda)
		y[i] = amount
		budget -= amount * it.lambda
		if ws.flags[i]&inT == 0 {
			ws.flags[i] |= inT
			t = t[:len(t)+1]
			t[len(t)-1] = int32(i)
		}
	}
	if len(t) > known { // the fill appended items in key order
		ws.touchedSorter.idx = t
		sort.Sort(&ws.touchedSorter)
	}
	ws.touched = t
	return budget
}

// staticAt returns the k-th entry of the static fill order under this
// solve's capacities, the eligible items (gain > 0, cap > 0) by before on the key −gain/λ;
// ok is false past its last entry. The fills read only a short prefix of
// that order, so it is pulled lazily: until the k-th entry has been
// popped, staticAt pushes whole blocks of the density order onto the heap
// while the heap is empty or its top's key is not below the next unpulled
// block's bound, and then pops the top into the tail.
//
// The pops are exactly the order a sort of every eligible item would give.
// before is a strict total order, so that order is unique. When the top
// is popped, its key is strictly below blockMin of the next unpulled
// block, which bounds every key an unpulled item can have, so the top
// comes before every unpulled eligible item; it also comes before every
// item left in the heap. So each pop is the least eligible item not yet
// popped, as in a heapsort of all of them. A tie with the bound pulls on,
// since an unpulled item with an equal key may have the lower index. The
// keys and the bounds both come from item.staticKey, so the comparison is
// exact, −Inf keys included.
func (s *Subproblem) staticAt(k int) (e ratioEntry, ok bool) {
	ws := &s.ws
	last := len(ws.static) - 1
	nb := len(ws.blockMin) - 1
	for ws.popped <= k {
		h := ws.static[:ws.heapLen]
		for ws.pulled < nb && (len(h) == 0 || h[0].ratio >= ws.blockMin[ws.pulled]) {
			h = s.pull(h, ws.pulled)
			ws.pulled++
		}
		if len(h) == 0 {
			return ratioEntry{}, false
		}
		// The tail slot is past the heap: heapLen + popped ≤ #items.
		ws.static[last-ws.popped] = h.pop()
		ws.heapLen = len(h)
		ws.popped++
	}
	return ws.static[last-k], true
}

// pull pushes the eligible items (gain > 0, cap > 0) of block b of the
// density order onto h, keyed −gain/λ, and returns the grown heap. h's
// capacity is the item count, so the pushes never reallocate. It reads the
// capacities of the block's items with gain > 0 only.
func (s *Subproblem) pull(h ratioHeap, b int) ratioHeap {
	for _, i := range s.posItem[b*staticBlock : min((b+1)*staticBlock, len(s.posItem))] {
		if it := &s.items[i]; it.gain > 0 && s.capOf(int(i)) > 0 {
			h = h[:len(h)+1]
			h[len(h)-1] = ratioEntry{ratio: it.staticKey(), i: int(i)}
			h.up(len(h) - 1)
		}
	}
	return h
}

// findHeads records, for this solve's capacities, each content's first
// eligible (gain > 0, cap > 0) entry in its position list: walk starts
// there, and the skip tests of greedyCache and localSearch compare its
// position with a walk's stop.
func (s *Subproblem) findHeads() {
	end := int32(len(s.items))
	for f := range s.ws.heads {
		h := cursor{k: s.contentStart[f], pos: end}
		for ; h.k < s.contentStart[f+1]; h.k++ {
			p := s.contentPos[h.k]
			if i := s.posItem[p]; s.items[i].gain > 0 && s.capOf(int(i)) > 0 {
				h.pos = p
				break
			}
		}
		s.ws.heads[f] = h
	}
}

// cacheSet lists the contents of the cache vector x in the workspace's
// set buffer.
func (s *Subproblem) cacheSet(x []bool) []int32 {
	set := s.ws.set[:0]
	for f, in := range x {
		if in {
			set = append(set, int32(f))
		}
	}
	s.ws.set = set
	return set
}

// walk solves the routing knapsack for the cache whose contents are set
// (any order) and returns the gain and the stop position: the position
// after the last item routed once the budget is spent (≤ 1e-12), or
// #items if it never is. It writes the routing into out unless out is
// nil; the gain is the same either way, bit for bit.
//
// The knapsack fills the cached, eligible items in density order. walk
// merges the cached contents' position lists from their heads (see
// findHeads), so it visits those items in that order and performs the
// float operations a scan of the whole order would, without the scan.
//
// The stop position is what makes candidates cheap to score. Adding a
// content whose first eligible position is ≥ stop changes nothing: the
// walk over the larger cache is identical up to that position, and by
// then it has already stopped. So that candidate's gain is this walk's,
// bit for bit.
func (s *Subproblem) walk(set []int32, out *model.Mat) (gain float64, stop int32) {
	ws := &s.ws
	end := int32(len(s.items))
	cur := ws.cur[:len(set)]
	for j, f := range set {
		cur[j] = ws.heads[f]
	}
	budget := s.inst.Bandwidth[s.n]
	last := int32(-1)
	for {
		if budget <= 1e-12 {
			return gain, last + 1
		}
		// The cache holds a few contents, so a linear scan of the cursors
		// finds the next position faster than a heap would.
		jMin, p := -1, end
		for j, c := range cur {
			if c.pos < p {
				jMin, p = j, c.pos
			}
		}
		if jMin < 0 {
			return gain, end
		}
		c := &cur[jMin]
		if c.k++; c.k < s.contentStart[set[jMin]+1] {
			c.pos = s.contentPos[c.k]
		} else {
			c.pos = end
		}
		i := s.posItem[p]
		it := &s.items[i]
		if it.gain <= 0 {
			continue
		}
		capI := s.capOf(int(i))
		if capI <= 0 {
			continue
		}
		amount := math.Min(capI, budget/it.lambda)
		if out != nil {
			out.Set(int(it.u), int(it.f), amount)
		}
		budget -= amount * it.lambda
		gain += amount * it.gain
		last = p
	}
}

// eagerCopy returns a copy of s that reads every capacity against yMinus
// from arrays of its own, filled up front: the non-hot-path solvers
// (SolveExact, BestRoutingForCache) run on it, so s's read list, the memo
// key, stays Solve's. The copy shares the rest of the workspace, which
// every solve rebuilds before reading.
func (s *Subproblem) eagerCopy(yMinus model.Mat) *Subproblem {
	c := *s
	c.ws.caps = make([]float64, len(s.items))
	c.ws.flags = make([]uint8, len(s.items))
	for i := range s.items {
		c.ws.caps[i] = s.items[i].capacity(yMinus)
		c.ws.flags[i] = capRead
	}
	return &c
}

// routingGivenCache computes the exact optimal routing for a fixed cache
// vector x: a fractional knapsack over the cached, linked pairs with this
// solve's capacities. It returns a fresh U×F routing block and the total
// gain. Composed with a cache search, it is an independent P_n solver
// (SolveExact).
func (s *Subproblem) routingGivenCache(x []bool) (model.Mat, float64) {
	s.findHeads()
	block := model.NewMat(s.inst.U, s.inst.F)
	gain, _ := s.walk(s.cacheSet(x), &block)
	return block, gain
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
	block, _ := s.eagerCopy(yMinus).routingGivenCache(x)
	return block, nil
}

// recoverPrimal scores every candidate cache vector (plus a greedy
// marginal-gain candidate) by its exact routing gain, improves the best
// one by local search, and only then fills the winner's routing. Scoring
// is a gain-only walk that writes no routing, so the losing candidates
// cost no per-item writes. It returns the best feasible pair as a Result
// in matrix form. The Result is workspace-owned.
func (s *Subproblem) recoverPrimal() *Result {
	ws := &s.ws
	s.findHeads()
	// The greedy candidate is evaluated unconditionally: it must not be
	// crowded out when the dual loop already produced maxCandidates
	// distinct vectors.
	bestX, bestGain := s.greedyCache()
	for ci := 0; ci < ws.pool.n; ci++ {
		x := ws.pool.list[ci]
		if gain, _ := s.walk(s.cacheSet(x), nil); gain > bestGain {
			bestGain, bestX = gain, x
		}
	}
	// localSearch leaves ws.set listing bestX.
	bestGain = s.localSearch(bestX, bestGain)

	// The fill is the walk that scored bestX, so its gain is bestGain.
	// The previous fill wrote only items of its cached contents at
	// positions below its stop, so resetting those to +0 leaves the block
	// all +0, as clearing the whole U×F block would.
	res := &ws.result
	for f, in := range res.Cache {
		if !in {
			continue
		}
		for k := s.contentStart[f]; k < s.contentStart[f+1] && s.contentPos[k] < ws.routedStop; k++ {
			it := &s.items[s.posItem[s.contentPos[k]]]
			res.Routing.Set(int(it.u), int(it.f), 0)
		}
	}
	copy(res.Cache, bestX)
	_, ws.routedStop = s.walk(ws.set, &res.Routing)
	res.Gain = bestGain
	res.DualIters = 0
	return res
}

// localSearch improves the cache vector x in place by 1-swap exchanges
// (replace one cached content with one uncached content) until no swap
// improves the exact routing gain, and returns the final gain. The greedy
// candidate is near-optimal but not optimal (submodular greedy); swaps
// close the residual gap on the instances this repository targets. It
// leaves ws.set listing the final x.
//
// Each cached out is walked once without it; a swap-in whose first
// eligible position is at or past that walk's stop scores that walk's
// gain exactly (see walk), so only the others are walked.
func (s *Subproblem) localSearch(x []bool, gain float64) float64 {
	const maxPasses = 4
	ws := &s.ws
	work := ws.workX
	copy(work, x)
	set := s.cacheSet(x)
	last := len(set) - 1 // out's slot while it is swapped
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for out := 0; out < s.inst.F; out++ {
			if !work[out] {
				continue
			}
			for j := range set {
				if set[j] == int32(out) {
					set[j], set[last] = set[last], set[j]
					break
				}
			}
			outGain, outStop := s.walk(set[:last], nil)
			for in := 0; in < s.inst.F; in++ {
				if work[in] { // out included: it stays cached until a swap is taken
					continue
				}
				set[last] = int32(in)
				candGain := outGain
				if ws.heads[in].pos < outStop {
					candGain, _ = s.walk(set, nil)
				}
				if candGain > gain+1e-9 {
					gain = candGain
					work[out], work[in] = false, true
					copy(x, work)
					improved = true
					break // 'out' is no longer cached; rescan
				}
			}
			if work[out] {
				set[last] = int32(out)
			}
		}
		if !improved {
			break
		}
	}
	return gain
}

// greedyCache builds a cache vector by repeatedly adding the content with
// the largest marginal routing gain (a submodular-style greedy), and
// returns it with its gain. It is the fallback candidate that keeps
// primal recovery strong when the dual multipliers have not yet separated
// the useful contents. The returned vector is the workspace's greedyX
// buffer.
//
// A candidate whose first eligible position is at or past the current
// cache's stop scores the current gain exactly (see walk), which never
// beats the best so far, so only the others are walked.
func (s *Subproblem) greedyCache() ([]bool, float64) {
	ws := &s.ws
	x := ws.greedyX
	for f := range x {
		x[f] = false
	}
	capN := s.inst.CacheCap[s.n]
	if capN == 0 || len(s.items) == 0 {
		return x, 0
	}
	set := ws.set[:0]
	baseGain, baseStop := s.walk(set, nil)
	for picked := 0; picked < capN; picked++ {
		bestF, bestGain, bestStop := -1, baseGain, baseStop
		set = set[:len(set)+1]
		for f := 0; f < s.inst.F; f++ {
			if x[f] || ws.heads[f].pos >= baseStop {
				continue
			}
			set[len(set)-1] = int32(f)
			if gain, stop := s.walk(set, nil); gain > bestGain+1e-12 {
				bestF, bestGain, bestStop = f, gain, stop
			}
		}
		if bestF == -1 {
			break // no content adds gain (bandwidth exhausted or no demand)
		}
		set[len(set)-1] = int32(bestF)
		x[bestF] = true
		baseGain, baseStop = bestGain, bestStop
	}
	return x, baseGain
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

// indexSorter orders item indices ascending.
type indexSorter struct{ idx []int32 }

func (s *indexSorter) Len() int           { return len(s.idx) }
func (s *indexSorter) Less(a, b int) bool { return s.idx[a] < s.idx[b] }
func (s *indexSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// ratioEntry is one knapsack-eligible item keyed by its cost ratio w/λ.
type ratioEntry struct {
	ratio float64
	i     int
}

// before orders entries by ratio ascending, ties by item index. Ratios are
// never NaN (w < 0 and λ > 0), so the order is strict and total.
func (e ratioEntry) before(o ratioEntry) bool {
	if e.ratio < o.ratio {
		return true
	}
	if o.ratio < e.ratio {
		return false
	}
	return e.i < o.i
}

// ratioHeap is a binary min-heap of eligible items in before order:
// successive pops yield exactly the sequence a sort would, whatever the
// heap's internal layout.
type ratioHeap []ratioEntry

func (h ratioHeap) less(a, b int) bool { return h[a].before(h[b]) }

// init establishes the heap invariant over the whole slice in O(len).
func (h ratioHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the entry with the smallest key.
func (h *ratioHeap) pop() ratioEntry {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return top
}

// up sifts entry i toward the root until its parent is not larger.
func (h ratioHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down sifts entry i toward the leaves until neither child is smaller.
func (h ratioHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
