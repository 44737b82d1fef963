package core

import (
	"math"
	"testing"

	"edgecache/internal/model"
)

// eagerSolve is Solve with every capacity read up front, before the dual
// loop starts: the oracle the lazily read capacities must match.
func (s *Subproblem) eagerSolve(yMinus model.Mat) *Result {
	s.startCaps(yMinus)
	for i := range s.items {
		s.capOf(i)
	}
	iters := s.dualLoop()
	res := s.recoverPrimal()
	res.DualIters = iters
	s.ws.solved = true
	return res
}

// checkReads holds the read list of the last solve to the eager
// capacities: every item on it is flagged and has the capacity's bits,
// no item is on it twice, and no other item is flagged.
func checkReads(t *testing.T, s *Subproblem, caps []float64) {
	t.Helper()
	flagged := 0
	for i := range s.items {
		if s.ws.flags[i]&capRead != 0 {
			flagged++
		}
	}
	if flagged != len(s.ws.read) {
		t.Fatalf("%d items flagged read, %d on the read list", flagged, len(s.ws.read))
	}
	for _, i := range s.ws.read {
		if s.ws.flags[i]&capRead == 0 {
			t.Fatalf("item %d is on the read list but not flagged", i)
		}
		if math.Float64bits(s.ws.caps[i]) != math.Float64bits(caps[i]) {
			t.Fatalf("item %d read capacity %v, eager %v", i, s.ws.caps[i], caps[i])
		}
	}
}

// lazyTableMax bounds the fuzzed item table; tiled past 3·staticBlock
// items, a table gives at most 3·staticBlock + lazyTableMax.
const lazyTableMax = 32

// decodeLazy maps fuzz bytes to a solver of more than three static blocks
// and two y₋ₙ. Bytes 0-4 pick the bandwidth, the cache capacity, F,
// DualIters and the step scale as decodeDual's do; byte 5 the table
// length (1 + byte mod 32); then every 4 bytes are one table item's λ,
// gain and its capacities in the two y₋ₙ (missing bytes read 0). The
// table repeats until the item count passes 3·staticBlock, so a solve can
// leave whole blocks of the density order unread.
func decodeLazy(data []byte) (*Subproblem, [2]model.Mat) {
	var head [6]byte
	data = data[copy(head[:], data):]
	table := 1 + int(head[5])%lazyTableMax
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

// FuzzLazyCapacities holds the lazily read capacities to eager ones, bit
// for bit. Two consecutive solves on one workspace must equal solves that
// read every capacity up front (μ, y, the candidate pool and the Result),
// and each read list must carry the eager bits. Then the memo: a y₋ₙ
// changed only off the last solve's read list must hit, with the answer
// of a fresh Solve, and a change to any one read capacity must miss. Run
// longer sessions with `go test -run '^$' -fuzz=FuzzLazyCapacities
// ./internal/core`.
func FuzzLazyCapacities(f *testing.F) {
	f.Add([]byte{})                                     // one item tiled
	f.Add([]byte{0, 1, 1, 5, 0, 3, 0, 0, 0, 0})         // bandwidth 0: only the heads are read
	f.Add([]byte{2, 1, 3, 5, 1, 7, 0, 0, 0, 0, 1, 1, 2, // cap 0 and gain ≤ 0 items among eligible ones
		4, 2, 2, 1, 6, 3, 3, 4, 5, 7, 6, 7, 0, 0, 6, 1})
	f.Add([]byte{6, 3, 2, 5, 1, 15, 0, 5, 0, 2, 1, 4, 3, 1, 2, 1, 0, 2, 3, 2, // large bandwidth: the walks read far
		4, 2, 7, 0, 5, 5, 4, 3, 6, 7, 1, 1, 7, 0, 2, 4, 0, 1, 6, 5, 1, 2, 4, 7, 3, 0, 5, 3, 2, 0, 1, 6, 1, 3, 5, 7})
	f.Add([]byte{5, 2, 2, 4, 4, 2, 6, 4, 0, 0, 0, 2, 3, 1, 5, 1, 2, 7}) // −Inf keys from a tiny λ, huge step
	f.Fuzz(func(t *testing.T, data []byte) {
		got, yMinus := decodeLazy(data)
		eager, _ := decodeLazy(data)
		for _, ym := range yMinus {
			gotRes, err := got.Solve(ym)
			if err != nil {
				t.Fatal(err)
			}
			sameDualState(t, got, eager, gotRes, eager.eagerSolve(ym))
			checkReads(t, got, eagerCaps(got, ym))
		}

		// Move every entry off the read list: unread items to y₋ₙ 0's
		// value, or to 0.5 where that is y₋ₙ 1's too, and the cells no
		// item reads to 0.5.
		last := yMinus[1]
		moved := last.Clone()
		for k := range moved.Data {
			moved.Data[k] = 0.5
		}
		for i, it := range got.items {
			u, f := int(it.u), int(it.f)
			switch {
			case got.ws.flags[i]&capRead != 0:
				moved.Set(u, f, last.At(u, f))
			case math.Float64bits(yMinus[0].At(u, f)) != math.Float64bits(last.At(u, f)):
				moved.Set(u, f, yMinus[0].At(u, f))
			}
		}
		if !got.answers(moved) {
			t.Fatal("y₋ₙ changed only off the read list: the memo missed")
		}
		fresh, _ := decodeLazy(data)
		want, err := fresh.Solve(moved)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, &got.ws.result, want)
		if got.ws.result.DualIters != want.DualIters {
			t.Fatalf("memo answer ran %d dual iterations, a fresh solve %d", got.ws.result.DualIters, want.DualIters)
		}

		// Any one read capacity moves to a value with other bits: a miss.
		for _, i := range got.ws.read {
			it := got.items[i]
			u, f := int(it.u), int(it.f)
			c := 0.25
			if math.Float64bits(got.ws.caps[i]) == math.Float64bits(c) {
				c = 0.75
			}
			moved.Set(u, f, 1-c)
			if got.answers(moved) {
				t.Fatalf("read item %d's capacity moved to %v: the memo hit", i, c)
			}
			moved.Set(u, f, last.At(u, f))
		}
	})
}
