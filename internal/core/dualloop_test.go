package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"edgecache/internal/model"
)

// referenceSolve is Solve with the full-scan dual loop: every sub-gradient
// iteration zeroes, scores and updates every item and heapifies every
// eligible one on its current key, and primal recovery scans the whole
// density order for every candidate. It is the reference the touched-set
// loop (dualLoop, routingFill over the lazily pulled static order) and
// the merge walk (recoverPrimal) must match bit for bit; routingStep's
// own reference is sortFill.
func (s *Subproblem) referenceSolve(yMinus model.Mat) (*Result, error) {
	if yMinus.U != s.inst.U || yMinus.F != s.inst.F {
		return nil, fmt.Errorf("core: yMinus is %dx%d, want U=%d F=%d",
			yMinus.U, yMinus.F, s.inst.U, s.inst.F)
	}

	ws := &s.ws
	caps := eagerCaps(s, yMinus)

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
		x := s.referenceCachingStep(scoreBuf)
		ws.pool.add(x)

		// Routing sub-problem (eq. 20): fractional knapsack with
		// coefficients w = (d−d̂)·λ + μ over the bandwidth budget.
		s.routingStep(y, mu, caps)

		// Projected sub-gradient update μ ← [μ + η·(y − x)]⁺ (eq. 21-23).
		eta := s.stepScale / (1 + stepDecay*float64(k))
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
	best := s.referenceRecoverPrimal(caps)
	best.DualIters = iters
	return best, nil
}

// eagerCaps is every item's residual capacity against yMinus, computed up
// front and written out here: y_nuf ≤ clamp(1 − y_{-n,uf}, 0, 1), which
// enforces the coupling constraint (4) inside the block update. It is the
// oracle for the capacities a solve reads lazily (capOf).
func eagerCaps(s *Subproblem, yMinus model.Mat) []float64 {
	caps := make([]float64, len(s.items))
	for i, it := range s.items {
		caps[i] = clamp01(1 - yMinus.At(int(it.u), int(it.f)))
	}
	return caps
}

// useCaps makes caps the capacities of the solve in progress, every one
// already read, so the fills and walks read caps instead of a y₋ₙ.
func (s *Subproblem) useCaps(caps []float64) {
	s.startCaps(model.Mat{})
	for i, c := range caps {
		s.ws.caps[i] = c
		s.ws.flags[i] |= capRead
		s.ws.read = append(s.ws.read, int32(i))
	}
}

// referenceCachingStep is cachingStep written as a scan of every content
// and a sort of the ones with positive score by score descending, ties by
// index.
func (s *Subproblem) referenceCachingStep(score []float64) []bool {
	x := s.ws.xStep
	var idx []int
	for f, sc := range score {
		x[f] = false
		if sc > 0 {
			idx = append(idx, f)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return score[idx[a]] > score[idx[b]] })
	for _, f := range idx[:min(len(idx), s.inst.CacheCap[s.n])] {
		x[f] = true
	}
	return x
}

// routingStep solves eq. 20 in place: minimize Σ (w_i)·y_i with
// w_i = −gain_i + μ_i, subject to Σ λ_i·y_i ≤ B_n and 0 ≤ y_i ≤ caps_i.
// Only negative-coefficient items are worth serving; the optimal solution
// of this LP fills them in increasing w/λ order (fractional knapsack).
// It heapifies every eligible item on its current key and pops until the
// budget is spent, every call: O(#items) per iteration, where routingFill
// pays O(|T|) plus a static order pulled only as far as the fills read it.
// It returns the unspent budget.
func (s *Subproblem) routingStep(y, mu, caps []float64) float64 {
	h := make(ratioHeap, 0, len(s.items))
	for i := range s.items {
		y[i] = 0
		w := -s.items[i].gain + mu[i]
		if w < 0 && caps[i] > 0 {
			h = append(h, ratioEntry{ratio: w / s.items[i].lambda, i: i})
		}
	}
	h.init()
	budget := s.inst.Bandwidth[s.n]
	for budget > 0 && len(h) > 0 {
		i := h.pop().i
		it := s.items[i]
		amount := math.Min(caps[i], budget/it.lambda)
		y[i] = amount
		budget -= amount * it.lambda
	}
	return budget
}

// itemSubproblem wraps bare items in a one-SBS Subproblem: item j is the
// pair (j/F, j%F), the density order is the item-level stable sort by
// gain/λ descending, and the workspace and per-content lists are
// NewSubproblem's.
func itemSubproblem(items []item, f, capN int, budget, stepScale float64, iters int) *Subproblem {
	u := (len(items) + f - 1) / f
	if u == 0 {
		u = 1
	}
	for j := range items {
		items[j].u, items[j].f = int32(j/f), int32(j%f)
	}
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	density := func(i int32) float64 { return items[i].gain / items[i].lambda }
	sort.SliceStable(order, func(a, b int) bool { return density(order[a]) > density(order[b]) })
	s := &Subproblem{
		inst:      &model.Instance{N: 1, U: u, F: f, CacheCap: []int{capN}, Bandwidth: []float64{budget}},
		cfg:       SubproblemConfig{DualIters: iters},
		items:     items,
		posItem:   order,
		stepScale: stepScale,
		ws:        newSolveWorkspace(len(items), u, f),
	}
	s.indexContents()
	return s
}

// Value tables the dual-loop fuzzer draws from, beside the fill tables:
// gains include zero and a negative one (never eligible), step scales a
// subnormal one (η underflows to 0) and a huge one (μ leaps past every
// gain in one step).
var (
	dualGains      = []float64{1, 2, 10, 0, 1e300, 150, -3, 2.5}
	dualIters      = []int{1, 2, 3, 5, 10, 60}
	dualStepScales = []float64{1, 146.5, 0.5, 5e-324, 1e300, 37.25}
)

// dualLoopMaxItems bounds a decoded item table, so one execution stays
// cheap.
const dualLoopMaxItems = 64

// decodeDual maps fuzz bytes to an instance: bytes 0-4 pick the bandwidth,
// the cache capacity (0-3), F (1-4), DualIters and the step scale; then
// every 4 bytes are one item's λ, gain and its residual capacity in two
// consecutive solves. It returns the subproblem and the two y₋ₙ.
func decodeDual(data []byte) (*Subproblem, [2]model.Mat) {
	var head [5]byte
	copy(head[:], data)
	var rest []byte
	if len(data) > len(head) {
		rest = data[len(head):]
	}
	var items []item
	var caps [2][]float64
	for ; len(rest) >= 4 && len(items) < dualLoopMaxItems; rest = rest[4:] {
		lambda := fillLambdas[int(rest[0])%len(fillLambdas)]
		gain := dualGains[int(rest[1])%len(dualGains)]
		items = append(items, item{lambda: lambda, gain: gain})
		caps[0] = append(caps[0], fillCaps[int(rest[2])%len(fillCaps)])
		caps[1] = append(caps[1], fillCaps[int(rest[3])%len(fillCaps)])
	}
	s := itemSubproblem(items, 1+int(head[2])%4, int(head[1])%4,
		fillBudgets[int(head[0])%len(fillBudgets)],
		dualStepScales[int(head[4])%len(dualStepScales)],
		dualIters[int(head[3])%len(dualIters)])
	var yMinus [2]model.Mat
	for k := range yMinus {
		yMinus[k] = model.NewMat(s.inst.U, s.inst.F)
		for i, it := range s.items {
			yMinus[k].Set(int(it.u), int(it.f), 1-caps[k][i]) // every table cap c gives 1 − (1 − c) = c
		}
	}
	return s, yMinus
}

// sameDualState reports the first difference between two subproblems'
// dual state and results, bit for bit: μ and y over every item, the
// candidate pool in order, and the Result.
func sameDualState(t *testing.T, got, want *Subproblem, gotRes, wantRes *Result) {
	t.Helper()
	for i := range want.items {
		if math.Float64bits(got.ws.mu[i]) != math.Float64bits(want.ws.mu[i]) {
			t.Fatalf("mu[%d] = %v, reference %v", i, got.ws.mu[i], want.ws.mu[i])
		}
		if math.Float64bits(got.ws.yDual[i]) != math.Float64bits(want.ws.yDual[i]) {
			t.Fatalf("yDual[%d] = %v, reference %v", i, got.ws.yDual[i], want.ws.yDual[i])
		}
	}
	if got.ws.pool.n != want.ws.pool.n {
		t.Fatalf("pool holds %d caches, reference %d", got.ws.pool.n, want.ws.pool.n)
	}
	for c := 0; c < want.ws.pool.n; c++ {
		if !boolsEqual(got.ws.pool.list[c], want.ws.pool.list[c]) {
			t.Fatalf("pool[%d] = %v, reference %v", c, got.ws.pool.list[c], want.ws.pool.list[c])
		}
	}
	if gotRes.DualIters != wantRes.DualIters {
		t.Fatalf("DualIters = %d, reference %d", gotRes.DualIters, wantRes.DualIters)
	}
	if !boolsEqual(gotRes.Cache, wantRes.Cache) {
		t.Fatalf("Cache = %v, reference %v", gotRes.Cache, wantRes.Cache)
	}
	for i := range wantRes.Routing.Data {
		if math.Float64bits(gotRes.Routing.Data[i]) != math.Float64bits(wantRes.Routing.Data[i]) {
			t.Fatalf("Routing.Data[%d] = %v, reference %v", i, gotRes.Routing.Data[i], wantRes.Routing.Data[i])
		}
	}
	if math.Float64bits(gotRes.Gain) != math.Float64bits(wantRes.Gain) {
		t.Fatalf("Gain = %v, reference %v", gotRes.Gain, wantRes.Gain)
	}
}

// FuzzDualLoop holds Solve's touched-set dual loop to the full-scan
// reference bit for bit over two consecutive solves on one workspace (the
// second starts from the first's touched set). Run longer sessions with
// `go test -run '^$' -fuzz=FuzzDualLoop ./internal/core`.
func FuzzDualLoop(f *testing.F) {
	f.Add([]byte{})                                                    // no items at all
	f.Add([]byte{0, 1, 1, 5, 0, 0, 0, 0, 0, 0, 1, 0, 0})               // bandwidth 0
	f.Add([]byte{2, 0, 2, 5, 0, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 0})   // cache capacity 0
	f.Add([]byte{2, 1, 3, 5, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 6, 1})   // equal keys, caps 0 in one solve
	f.Add([]byte{6, 2, 2, 5, 0, 5, 4, 0, 0, 6, 4, 0, 0, 0, 2, 0, 0})   // −Inf keys from a tiny λ
	f.Add([]byte{4, 1, 2, 5, 3, 3, 3, 0, 0, 0, 6, 0, 0, 2, 0, 2, 7})   // gain ≤ 0, subnormal step
	f.Add([]byte{5, 3, 4, 4, 4, 0, 5, 0, 2, 3, 2, 4, 3, 1, 7, 5, 1})   // huge step
	f.Add([]byte{6, 3, 3, 5, 1, 1, 2, 0, 7, 3, 7, 4, 0, 4, 1, 0, 5, 2, // large bandwidth
		6, 5, 0, 1, 3, 0, 7, 2, 2, 2, 2, 6, 0, 3, 7, 5, 1, 2, 4, 4, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, yMinus := decodeDual(data)
		want, _ := decodeDual(data)
		for _, ym := range yMinus {
			wantRes, err := want.referenceSolve(ym)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := got.Solve(ym)
			if err != nil {
				t.Fatal(err)
			}
			sameDualState(t, got, want, gotRes, wantRes)
		}
	})
}
