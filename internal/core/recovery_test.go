package core

import (
	"math"
	"testing"

	"edgecache/internal/model"
)

// referenceRoutingGivenCacheInto is the routing knapsack for a fixed cache
// x written as a scan of the whole density order that skips every item
// whose content is uncached. It is the reference walk must match bit for
// bit. A nil y scores the cache without writing a routing.
func (s *Subproblem) referenceRoutingGivenCacheInto(x []bool, caps, y []float64) float64 {
	for i := range y {
		y[i] = 0
	}
	budget := s.inst.Bandwidth[s.n]
	var gain float64
	for _, i := range s.posItem {
		if budget <= 1e-12 {
			break
		}
		it := s.items[i]
		if !x[it.f] || caps[i] <= 0 || it.gain <= 0 {
			continue
		}
		amount := math.Min(caps[i], budget/it.lambda)
		if y != nil {
			y[i] = amount
		}
		budget -= amount * it.lambda
		gain += amount * it.gain
	}
	return gain
}

// referenceRecoverPrimal is recoverPrimal with every candidate scored by
// the full scan: the greedy candidate, every pool entry, then 1-swap local
// search on the best, each candidate walked in full.
func (s *Subproblem) referenceRecoverPrimal(caps []float64) *Result {
	ws := &s.ws
	bestX := s.referenceGreedyCache(caps)
	bestGain := s.referenceRoutingGivenCacheInto(bestX, caps, nil)
	for ci := 0; ci < ws.pool.n; ci++ {
		x := ws.pool.list[ci]
		if gain := s.referenceRoutingGivenCacheInto(x, caps, nil); gain > bestGain {
			bestGain, bestX = gain, x
		}
	}
	bestGain = s.referenceLocalSearch(bestX, bestGain, caps)

	y := make([]float64, len(s.items))
	s.referenceRoutingGivenCacheInto(bestX, caps, y)
	res := &ws.result
	copy(res.Cache, bestX)
	res.Routing.Zero()
	for i, it := range s.items {
		res.Routing.Set(int(it.u), int(it.f), y[i])
	}
	res.Gain = bestGain
	res.DualIters = 0
	return res
}

// referenceLocalSearch is localSearch with every swap walked in full.
func (s *Subproblem) referenceLocalSearch(x []bool, gain float64, caps []float64) float64 {
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
				candGain := s.referenceRoutingGivenCacheInto(work, caps, nil)
				if candGain > gain+1e-9 {
					gain = candGain
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
	return gain
}

// referenceGreedyCache is greedyCache with every candidate walked in full.
func (s *Subproblem) referenceGreedyCache(caps []float64) []bool {
	ws := &s.ws
	x := ws.greedyX
	for f := range x {
		x[f] = false
	}
	capN := s.inst.CacheCap[s.n]
	if capN == 0 || len(s.items) == 0 {
		return x
	}
	baseGain := s.referenceRoutingGivenCacheInto(x, caps, nil)
	for picked := 0; picked < capN; picked++ {
		bestF, bestGain := -1, baseGain
		for f := 0; f < s.inst.F; f++ {
			if x[f] {
				continue
			}
			x[f] = true
			gain := s.referenceRoutingGivenCacheInto(x, caps, nil)
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

// Value tables the primal-recovery fuzzer draws from. Densities are
// gain/λ, so the small repeated values tie often; a zero gain is never
// eligible.
var (
	recoveryLambdas = []float64{1, 2, 0.5, 1, 4, 3.75, 1, 20}
	recoveryGains   = []float64{1, 2, 4, 0, 1, 8, 2.5, 150}
)

// recoveryMaxItems bounds a decoded item table, so one execution stays
// cheap.
const recoveryMaxItems = 64

// decodeRecovery maps fuzz bytes to a primal-recovery input: bytes 0-3
// pick the bandwidth (from fillBudgets: 0, and 1e6, which no walk
// exhausts, among others), the cache capacity (0, 1, 2 or F), F (1-6) and
// the number of pool candidates (0-3). Each candidate then takes one
// byte, whose bits choose its contents (0x00 is the empty cache, 0xff
// holds every content), and every following 3 bytes are one item's λ,
// gain and cap (fillCaps, with zeros). It returns the subproblem with
// its pool filled, the caps, and a y₋ₙ that gives the items those caps.
func decodeRecovery(data []byte) (*Subproblem, []float64, model.Mat) {
	var head [4]byte
	copy(head[:], data)
	rest := data[min(len(data), len(head)):]
	f := 1 + int(head[2])%6
	capN := []int{0, 1, 2, f}[head[1]%4]
	var pool [][]bool
	for c := 0; c < int(head[3])%4 && len(rest) > 0; c++ {
		x := make([]bool, f)
		for j := range x {
			x[j] = rest[0]&(1<<j) != 0
		}
		pool = append(pool, x)
		rest = rest[1:]
	}
	var items []item
	var caps []float64
	for ; len(rest) >= 3 && len(items) < recoveryMaxItems; rest = rest[3:] {
		lambda := recoveryLambdas[int(rest[0])%len(recoveryLambdas)]
		gain := recoveryGains[int(rest[1])%len(recoveryGains)]
		items = append(items, item{lambda: lambda, gain: gain})
		caps = append(caps, fillCaps[int(rest[2])%len(fillCaps)])
	}
	s := itemSubproblem(items, f, capN, fillBudgets[int(head[0])%len(fillBudgets)], 1, 1)
	for _, x := range pool {
		s.ws.pool.add(x)
	}
	yMinus := model.NewMat(s.inst.U, s.inst.F)
	for i, it := range s.items {
		yMinus.Set(int(it.u), int(it.f), 1-caps[i]) // every table cap c gives 1 − (1 − c) = c
	}
	return s, caps, yMinus
}

// sameResult compares two primal-recovery results bit for bit: the
// cache, the gain and every routing entry.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if !boolsEqual(got.Cache, want.Cache) {
		t.Fatalf("Cache = %v, reference %v", got.Cache, want.Cache)
	}
	if math.Float64bits(got.Gain) != math.Float64bits(want.Gain) {
		t.Fatalf("Gain = %v, reference %v", got.Gain, want.Gain)
	}
	for i := range want.Routing.Data {
		if math.Float64bits(got.Routing.Data[i]) != math.Float64bits(want.Routing.Data[i]) {
			t.Fatalf("Routing.Data[%d] = %v, reference %v", i, got.Routing.Data[i], want.Routing.Data[i])
		}
	}
}

// checkWalk holds walk on the cache x to the full scan, bit for bit (gain
// and routing), and checks the stop-position skip that greedyCache and
// localSearch rest on: adding any content whose first eligible position
// is at or past the stop leaves the full scan's gain unchanged.
func checkWalk(t *testing.T, s *Subproblem, x []bool, caps []float64) {
	t.Helper()
	want := make([]float64, len(s.items))
	wantGain := s.referenceRoutingGivenCacheInto(x, caps, want)
	got := model.NewMat(s.inst.U, s.inst.F)
	gain, stop := s.walk(s.cacheSet(x), &got)
	if math.Float64bits(gain) != math.Float64bits(wantGain) {
		t.Fatalf("cache %v: walk gain %v, full scan %v", x, gain, wantGain)
	}
	for i, it := range s.items {
		if v := got.At(int(it.u), int(it.f)); math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("cache %v: item %d routed %v, full scan %v", x, i, v, want[i])
		}
	}
	for f := range x {
		if x[f] || s.ws.heads[f].pos < stop {
			continue
		}
		x[f] = true
		more := s.referenceRoutingGivenCacheInto(x, caps, nil)
		x[f] = false
		if math.Float64bits(more) != math.Float64bits(gain) {
			t.Fatalf("cache %v plus %d (first eligible at %d, stop %d): full scan %v, skip assumes %v",
				x, f, s.ws.heads[f].pos, stop, more, gain)
		}
	}
}

// FuzzPrimalRecovery holds recoverPrimal, which scores candidates with
// the merge walk and skips the ones the stop position proves unchanged,
// to the full-scan reference bit for bit: the cache, Gain and routing. It
// also checks walk and the skip itself on the empty cache, every pool
// candidate and the full cache. The walks read their capacities lazily
// from a y₋ₙ, and the references read the eager caps. Run longer sessions with
// `go test -run '^$' -fuzz=FuzzPrimalRecovery ./internal/core`.
func FuzzPrimalRecovery(f *testing.F) {
	f.Add([]byte{})                                                        // no items at all
	f.Add([]byte{0, 3, 2, 1, 0xff, 0, 1, 0, 1, 1, 0, 2, 1, 0})             // bandwidth 0
	f.Add([]byte{1, 0, 2, 2, 0x01, 0x03, 0, 1, 0, 1, 2, 0, 0, 5, 0})       // cache capacity 0
	f.Add([]byte{1, 1, 3, 3, 0x00, 0x02, 0x0f, 0, 0, 0, 0, 0, 0, 3, 0, 0}) // caches of 0, 1 and all contents; tied densities
	f.Add([]byte{6, 3, 2, 2, 0x03, 0x01, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1}) // bandwidth no walk exhausts
	f.Add([]byte{3, 2, 3, 1, 0x05, 0, 1, 1, 0, 2, 6, 1, 1, 0, 2, 5, 0, 3, 3, 2, 4, 6, 3, 0, 7, 1})
	f.Add([]byte{2, 3, 5, 3, 0x11, 0x1f, 0x08, 0, 5, 0, 1, 1, 1, 2, 2, 2, 3, 4, 3, 4, 0, 0, // zero caps and gains mixed in
		5, 3, 2, 6, 6, 1, 7, 7, 7, 0, 1, 6, 1, 2, 4, 2, 0, 5, 3, 1, 0, 4, 6})
	f.Add([]byte("10A7001000000")) // unspent budget: a swap-in whose eligible item is the last position
	f.Fuzz(func(t *testing.T, data []byte) {
		got, caps, yMinus := decodeRecovery(data)
		want, _, _ := decodeRecovery(data)

		got.startCaps(yMinus)
		got.findHeads()
		empty := make([]bool, got.inst.F)
		full := make([]bool, got.inst.F)
		for j := range full {
			full[j] = true
		}
		checkWalk(t, got, empty, caps)
		checkWalk(t, got, full, caps)
		for c := 0; c < got.ws.pool.n; c++ {
			checkWalk(t, got, got.ws.pool.list[c], caps)
		}

		sameResult(t, got.recoverPrimal(), want.referenceRecoverPrimal(caps))
		for c := 0; c < want.ws.pool.n; c++ { // local search mutates the winner in place
			if !boolsEqual(got.ws.pool.list[c], want.ws.pool.list[c]) {
				t.Fatalf("pool[%d] = %v, reference %v", c, got.ws.pool.list[c], want.ws.pool.list[c])
			}
		}
	})
}
