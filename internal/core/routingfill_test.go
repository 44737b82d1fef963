package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"edgecache/internal/model"
)

// sortFill is the reference for the knapsack fills (routingFill and the
// full-scan routingStep), the fractional
// knapsack written the plain way: it sorts every eligible item by w/λ
// ascending (ties by index) and fills the sorted prefix until the budget
// is spent, writing y and returning the unspent budget.
func sortFill(items []item, y, mu, caps []float64, budget float64) float64 {
	ratio := make([]float64, len(items))
	var order []int
	for i := range items {
		y[i] = 0
		w := -items[i].gain + mu[i]
		if w < 0 && caps[i] > 0 {
			ratio[i] = w / items[i].lambda
			order = append(order, i)
		}
	}
	sort.Sort(&ratioSorter{order: order, ratio: ratio})
	for _, i := range order {
		if budget <= 0 {
			break
		}
		it := items[i]
		amount := math.Min(caps[i], budget/it.lambda)
		y[i] = amount
		budget -= amount * it.lambda
	}
	return budget
}

// ratioSorter orders item indices by precomputed w/λ ascending, ties by
// index.
type ratioSorter struct {
	order []int
	ratio []float64
}

func (s *ratioSorter) Len() int { return len(s.order) }
func (s *ratioSorter) Less(a, b int) bool {
	ia, ib := s.order[a], s.order[b]
	if s.ratio[ia] != s.ratio[ib] {
		return s.ratio[ia] < s.ratio[ib]
	}
	return ia < ib
}
func (s *ratioSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

// Value tables the fill fuzzer draws from. Repeated values make equal
// ratios common; λ = 5e-324 and 1e-310 against a gain of 1e300 overflow
// w/λ to −Inf; a zero cap and a μ above the gain make items ineligible.
var (
	fillLambdas = []float64{1, 0.5, 2, 20, 3.75, 1e-310, 5e-324, 7}
	fillGains   = []float64{1, 2, 10, 0, 1e300, 150, 4, 2.5}
	fillMus     = []float64{0, 0, 0.5, 1, 10, 1e301, 3, 0.25}
	fillCaps    = []float64{1, 0, 0.5, 1, 0.25, 1, 0, 0.75}
	fillBudgets = []float64{0, 5, 45, 1, 0.5, 1e-300, 1e6, 12.5}
)

// decodeFill maps fuzz bytes to a budget and a list of items with their
// μ, caps and touched flags: byte 0 picks the budget, then every 4 bytes
// are one item's λ, gain, μ and cap. An item is touched if its μ is
// positive (the dual loop's invariant) or its cap byte has the high bit
// set.
func decodeFill(data []byte) (items []item, mu, caps []float64, touched []bool, budget float64) {
	if len(data) == 0 {
		return nil, nil, nil, nil, 0
	}
	budget = fillBudgets[int(data[0])%len(fillBudgets)]
	for rest := data[1:]; len(rest) >= 4; rest = rest[4:] {
		lambda := fillLambdas[int(rest[0])%len(fillLambdas)]
		gain := fillGains[int(rest[1])%len(fillGains)]
		items = append(items, item{lambda: lambda, gain: gain})
		mu = append(mu, fillMus[int(rest[2])%len(fillMus)])
		caps = append(caps, fillCaps[int(rest[3])%len(fillCaps)])
		touched = append(touched, mu[len(mu)-1] > 0 || rest[3] >= 0x80)
	}
	return items, mu, caps, touched, budget
}

// checkFill compares a fill's routing and unspent budget with sortFill's,
// bit for bit.
func checkFill(t *testing.T, name string, got, want []float64, gotBudget, wantBudget float64) {
	t.Helper()
	if math.Float64bits(gotBudget) != math.Float64bits(wantBudget) {
		t.Fatalf("%s: unspent budget %v (bits %#x), oracle %v (bits %#x)", name,
			gotBudget, math.Float64bits(gotBudget), wantBudget, math.Float64bits(wantBudget))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

// fillFromTouched runs routingFill as the dual loop would, with y zero
// outside T: the entries on T start as NaN, so the fill must overwrite
// them. It checks that T stays ascending and holds every routed item.
func fillFromTouched(t *testing.T, s *Subproblem, y, mu []float64) float64 {
	t.Helper()
	for i := range y {
		y[i] = 0
	}
	for _, i := range s.ws.touched {
		y[i] = math.NaN()
	}
	budget := s.routingFill(y, mu)
	for j, i := range s.ws.touched {
		if j > 0 && s.ws.touched[j-1] >= i {
			t.Fatalf("touched set %v is not strictly ascending", s.ws.touched)
		}
		if s.ws.flags[i]&inT == 0 {
			t.Fatalf("item %d is in T but not flagged", i)
		}
	}
	for i, v := range y {
		if v != 0 && s.ws.flags[i]&inT == 0 {
			t.Fatalf("item %d routed %v but not in T", i, v)
		}
	}
	return budget
}

// FuzzRoutingFill holds both knapsack fills to the sort-based oracle bit
// for bit, every y entry and the unspent budget: the full-scan routingStep,
// and routingFill's merge of the static order with the heap over T, twice
// in a row, so the second fill walks the prefix the first one popped. Run
// longer sessions with `go test -run '^$' -fuzz=FuzzRoutingFill
// ./internal/core`.
func FuzzRoutingFill(f *testing.F) {
	f.Add([]byte{})                                                                          // no items at all
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 0})                                                 // budget 0
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 6})                                                 // every cap 0: empty eligible set
	f.Add([]byte{1, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0}) // equal ratios under a binding budget: ties by index
	f.Add([]byte{1, 5, 4, 0, 0, 6, 4, 0, 0, 0, 2, 0, 0})                                     // −Inf ratios from a tiny λ
	f.Add([]byte{6, 3, 2, 1, 2, 4, 5, 6, 4, 2, 3, 7, 0, 1, 0, 2, 3})
	f.Add([]byte{2, 0, 0, 0, 0x80, 2, 1, 0, 0x87, 3, 2, 2, 0x83, 0, 7, 0, 0x85}) // touched items with μ = 0 stay in the static walk
	f.Fuzz(func(t *testing.T, data []byte) {
		items, mu, caps, touched, budget := decodeFill(data)
		want := make([]float64, len(items))
		wantBudget := sortFill(items, want, mu, caps, budget)
		s := itemSubproblem(items, 1, 0, budget, 1, 1)

		got := make([]float64, len(items))
		for i := range got {
			got[i] = math.NaN() // routingStep must overwrite every entry
		}
		checkFill(t, "routingStep", got, want, s.routingStep(got, mu, caps), wantBudget)

		s.resetDual()
		s.useCaps(caps)
		for i, in := range touched {
			if in {
				s.ws.flags[i] |= inT
				s.ws.touched = append(s.ws.touched, int32(i))
			}
		}
		for pass := 0; pass < 2; pass++ {
			checkFill(t, "routingFill", got, want, fillFromTouched(t, s, got, mu), wantBudget)
		}
	})
}

// TestRoutingStepMatchesSortOracleOnSolveInputs replays the dual loop's
// routing step, routingFill, against the oracle on the μ, touched set and
// popped static prefix a real solve leaves behind: ratios cluster as μ
// climbs toward the gains, which random tables rarely reach.
func TestRoutingStepMatchesSortOracleOnSolveInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng, 2, 12, 20)
		sub, err := NewSubproblem(inst, trial%2, DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		yMinus := inst.NewUFMat()
		for i := range yMinus.Data {
			if rng.Float64() < 0.3 {
				yMinus.Data[i] = rng.Float64()
			}
		}
		if _, err := sub.Solve(yMinus); err != nil {
			t.Fatal(err)
		}
		// ws.mu holds the last dual iterate of that solve; the fill reads
		// its capacities lazily again, the oracle eagerly.
		mu, caps := sub.ws.mu, eagerCaps(sub, yMinus)
		want := make([]float64, len(sub.items))
		wantBudget := sortFill(sub.items, want, mu, caps, inst.Bandwidth[sub.n])
		got := make([]float64, len(sub.items))
		sub.startCaps(yMinus)
		checkFill(t, fmt.Sprintf("trial %d", trial), got, want, fillFromTouched(t, sub, got, mu), wantBudget)
	}
}

// TestGainOnlyScoringMatchesFill pins the invariant primal recovery rests
// on: scoring a cache with a nil routing block returns exactly the gain,
// bit for bit, of the walk that writes the routing, and both match the
// full scan of the density order.
func TestGainOnlyScoringMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 2, 10, 15)
		sub, err := NewSubproblem(inst, trial%2, DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		caps := make([]float64, len(sub.items))
		for i := range caps {
			caps[i] = clamp01(rng.Float64() * 1.5)
		}
		sub.useCaps(caps)
		sub.findHeads()
		x := make([]bool, inst.F)
		y := model.NewMat(inst.U, inst.F)
		for draw := 0; draw < 10; draw++ {
			for f := range x {
				x[f] = rng.Float64() < 0.4
			}
			scored, scoredStop := sub.walk(sub.cacheSet(x), nil)
			y.Zero()
			filled, filledStop := sub.walk(sub.cacheSet(x), &y)
			if math.Float64bits(scored) != math.Float64bits(filled) || scoredStop != filledStop {
				t.Fatalf("trial %d draw %d: gain-only %v (stop %d), filled %v (stop %d)",
					trial, draw, scored, scoredStop, filled, filledStop)
			}
			if ref := sub.referenceRoutingGivenCacheInto(x, caps, nil); math.Float64bits(ref) != math.Float64bits(filled) {
				t.Fatalf("trial %d draw %d: walk %v, full scan %v", trial, draw, filled, ref)
			}
			var sum float64
			for _, it := range sub.items {
				sum += y.At(int(it.u), int(it.f)) * it.gain
			}
			if math.Abs(sum-filled) > 1e-9*math.Max(1, math.Abs(filled)) {
				t.Fatalf("trial %d draw %d: filled routing earns %v, reported gain %v", trial, draw, sum, filled)
			}
		}
	}
}
