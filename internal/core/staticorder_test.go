package core

import (
	"math"
	"slices"
	"testing"

	"edgecache/internal/model"
)

// sortedStatic is the oracle for the static fill order: every eligible
// item (gain > 0, cap > 0) keyed −gain/λ, written out here rather than
// through staticKey, sorted by before.
func sortedStatic(s *Subproblem, caps []float64) []ratioEntry {
	var order []ratioEntry
	for i, it := range s.items {
		if it.gain > 0 && caps[i] > 0 {
			order = append(order, ratioEntry{ratio: -it.gain / it.lambda, i: i})
		}
	}
	slices.SortFunc(order, func(a, b ratioEntry) int {
		if a.before(b) {
			return -1
		}
		return 1 // before is strict and total, and the items are distinct
	})
	return order
}

// checkStaticOrder starts a solve's dual state and holds staticAt to the
// oracle on caps, entry by entry, key bits included; the caller has begun
// the solve's capacity reads, eager (useCaps) or lazy (startCaps) ones
// that must match caps. It reads the
// first prefix entries in order, re-reads the popped ones (the fills
// re-walk the prefix every iteration), and reads on to the end unless
// prefix cuts the read short.
func checkStaticOrder(t *testing.T, s *Subproblem, caps []float64, prefix int) {
	t.Helper()
	s.resetDual()
	want := sortedStatic(s, caps)
	n := min(prefix, len(want))
	for k := 0; k < n; k++ {
		e, ok := s.staticAt(k)
		if !ok || e.i != want[k].i || math.Float64bits(e.ratio) != math.Float64bits(want[k].ratio) {
			t.Fatalf("staticAt(%d) = %+v (ok %v), sorted order has %+v", k, e, ok, want[k])
		}
	}
	for k := n - 1; k >= 0; k-- {
		if e, _ := s.staticAt(k); e != want[k] {
			t.Fatalf("re-read staticAt(%d) = %+v, sorted order has %+v", k, e, want[k])
		}
	}
	if n < len(want) {
		return
	}
	if e, ok := s.staticAt(len(want)); ok {
		t.Fatalf("staticAt(%d) = %+v past the last of %d eligible items", len(want), e, len(want))
	}
}

// TestStaticOrderMatchesSort holds the lazily pulled static order to a full
// sort on a Subproblem built to stress the block bounds: user densities one
// ulp apart, rising with the user index, and rates λ whose key
// fl(fl(d·λ)/λ) misses d, so keys interleave across block boundaries and
// equal keys fall on both sides of one with the lower index later in the
// density order. Some capacities are zero, a zero-density user is never
// eligible, and one item of a late block gets a −Inf key (tiny λ, huge
// gain), which pulls every block up to it.
func TestStaticOrderMatchesSort(t *testing.T) {
	const users, contents = 9, 40
	lambdas := []float64{0.1, 0.3, 0.7, 1.1, 1.3, 2.9, 3.7, 0.9, 5.3, 7.1, 0.6}
	inst := &model.Instance{
		N: 1, U: users, F: contents,
		Demand:    make([][]float64, users),
		Links:     [][]bool{make([]bool, users)},
		CacheCap:  []int{3},
		Bandwidth: []float64{10},
		EdgeCost:  [][]float64{make([]float64, users)},
		BSCost:    make([]float64, users),
	}
	density := 100.0
	for u := 0; u < users; u++ {
		inst.Links[0][u] = true
		inst.Demand[u] = make([]float64, contents)
		for f := range inst.Demand[u] {
			inst.Demand[u][f] = lambdas[(u+f)%len(lambdas)]
		}
		if u > 0 { // user 0's density is 0: gain 0, never eligible
			inst.BSCost[u] = density
			density = math.Nextafter(density, math.Inf(1))
		}
	}
	s, err := NewSubproblem(inst, 0, DefaultSubproblemConfig())
	if err != nil {
		t.Fatal(err)
	}
	nb := (len(s.items) + staticBlock - 1) / staticBlock
	if nb <= 3 {
		t.Fatalf("%d items make %d blocks, want more than 3", len(s.items), nb)
	}
	// The construction must interleave keys across a block boundary and
	// straddle one with an equal key whose index is lower in the later block.
	interleaved, straddled := false, false
	for p := 0; p < len(s.posItem) && !(interleaved && straddled); p++ {
		i := s.posItem[p]
		if s.items[i].gain <= 0 {
			continue
		}
		for q := (p/staticBlock + 1) * staticBlock; q < len(s.posItem); q++ {
			j := s.posItem[q]
			if s.items[j].gain <= 0 {
				continue
			}
			ki, kj := s.items[i].staticKey(), s.items[j].staticKey()
			interleaved = interleaved || kj < ki
			straddled = straddled || (kj == ki && j < i)
		}
	}
	if !interleaved || !straddled {
		t.Fatalf("keys interleave across blocks: %v; equal keys straddle a boundary, lower index later: %v", interleaved, straddled)
	}

	yMinus := [2]model.Mat{inst.NewUFMat(), inst.NewUFMat()}
	for k := range yMinus {
		for i := range yMinus[k].Data {
			switch (i + k) % 5 {
			case 0:
				yMinus[k].Data[i] = 1 // cap 0
			case 3:
				yMinus[k].Data[i] = 0.5
			}
		}
	}
	run := func(name string) {
		for k, ym := range yMinus {
			caps := eagerCaps(s, ym)
			zero := false
			for i, c := range caps {
				zero = zero || (c <= 0 && s.items[i].gain > 0)
			}
			if !zero {
				t.Fatalf("%s: y₋ₙ %d leaves no eligible-gain item at cap 0", name, k)
			}
			s.startCaps(ym)
			checkStaticOrder(t, s, caps, len(s.items)/2) // leaves the heap part-pulled
			s.startCaps(ym)
			checkStaticOrder(t, s, caps, len(s.items))
		}
	}
	run("density order")

	// A −Inf key in a late block, eligible under the first y₋ₙ: its bound
	// is every earlier block's bound.
	p := len(s.posItem) - staticBlock/2
	for it := &s.items[s.posItem[p]]; yMinus[0].At(int(it.u), int(it.f)) >= 1; it = &s.items[s.posItem[p]] {
		p--
	}
	late := s.posItem[p]
	s.items[late].gain, s.items[late].lambda = 1e300, 5e-324
	if k := s.items[late].staticKey(); !math.IsInf(k, -1) {
		t.Fatalf("key of item %d = %v, want −Inf", late, k)
	}
	s.ws.bounded = false // the keys changed under the bounds
	run("−Inf key in the last block")
}

// staticTableMax bounds the fuzzed item table; tiled past 3·staticBlock
// items, a table gives at most 3·staticBlock + staticTableMax.
const staticTableMax = 32

// decodeStatic maps fuzz bytes to a Subproblem and the caps of two
// solves. Byte 0 picks the table length (1 + byte mod 32), then every 4
// bytes are one table item's λ, gain and its caps in the two solves
// (missing bytes read 0). The table repeats until the item count passes
// 3·staticBlock, so equal keys recur in every block. The density order
// starts sorted, and each further byte pair (a, b) swaps its entries at
// positions a and b (mod #items), which puts block minima out of order.
func decodeStatic(data []byte) (*Subproblem, [2][]float64) {
	var head byte
	if len(data) > 0 {
		head, data = data[0], data[1:]
	}
	table := 1 + int(head)%staticTableMax
	var items []item
	var caps [2][]float64
	for j := 0; j < table; j++ {
		var rec [4]byte
		data = data[copy(rec[:], data):]
		items = append(items, item{
			lambda: fillLambdas[int(rec[0])%len(fillLambdas)],
			gain:   dualGains[int(rec[1])%len(dualGains)],
		})
		caps[0] = append(caps[0], fillCaps[int(rec[2])%len(fillCaps)])
		caps[1] = append(caps[1], fillCaps[int(rec[3])%len(fillCaps)])
	}
	for len(items) <= 3*staticBlock {
		items = append(items, items[:table]...)
		caps[0] = append(caps[0], caps[0][:table]...)
		caps[1] = append(caps[1], caps[1][:table]...)
	}
	s := itemSubproblem(items, 1, 0, 0, 1, 1)
	for n := len(s.posItem); len(data) >= 2; data = data[2:] {
		a, b := int(data[0])%n, int(data[1])%n
		s.posItem[a], s.posItem[b] = s.posItem[b], s.posItem[a]
	}
	s.indexContents()
	return s, caps
}

// FuzzStaticOrder holds the lazily pulled static order to the sort of
// every eligible item over permuted density orders of more than three
// blocks: a part-read solve, then a full read under each caps. Run longer
// sessions with `go test -run '^$' -fuzz=FuzzStaticOrder ./internal/core`.
func FuzzStaticOrder(f *testing.F) {
	f.Add([]byte{})                         // one item tiled: every key equal, in index order
	f.Add([]byte{0, 0, 0, 0, 0, 0, 64})     // equal keys, index 0 moved past the first boundary
	f.Add([]byte{2, 0, 1, 0, 0, 6, 4, 2, 1, // −Inf keys among equal finite ones
		0, 1, 1, 0, 63, 64, 130, 2, 191, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, caps := decodeStatic(data)
		s.useCaps(caps[0])
		checkStaticOrder(t, s, caps[0], len(s.items)/2)
		s.useCaps(caps[1])
		checkStaticOrder(t, s, caps[1], len(s.items))
		s.useCaps(caps[0])
		checkStaticOrder(t, s, caps[0], len(s.items))
	})
}
