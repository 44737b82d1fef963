package model

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// This file pins what AggregateTracker's mutators compute, value by value
// and bit for bit, against a brute-force oracle: the ascending-n sum of
// the linked blocks, which is AggregateInto's order.

// linkedSum is the oracle aggregate entry (u, f): SBS blocks added in
// ascending n from +0, over the SBSs linked to u.
func linkedSum(in *Instance, y *RoutingPolicy, u, f int) float64 {
	var sum float64
	for n := 0; n < in.N; n++ {
		if in.Links[n][u] {
			sum += y.At(n, u, f)
		}
	}
	return sum
}

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// fuzzTrackerInstance derives a small valid instance and an op stream from
// fuzz bytes. The rng is seeded from the header so every run is
// deterministic per input.
func fuzzTrackerInstance(data []byte) (*Instance, *rand.Rand, []byte) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	n := 1 + int(data[0]%3)
	u := 1 + int(data[1]%4)
	f := 1 + int(data[2]%4)
	rng := rand.New(rand.NewSource(int64(data[3]) + 1))

	in := &Instance{N: n, U: u, F: f}
	for i := 0; i < u; i++ {
		row := make([]float64, f)
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		in.Demand = append(in.Demand, row)
		in.BSCost = append(in.BSCost, 50+rng.Float64()*100)
	}
	for i := 0; i < n; i++ {
		links := make([]bool, u)
		for j := range links {
			links[j] = rng.Intn(4) != 0
		}
		cost := make([]float64, u)
		for j := range cost {
			cost[j] = rng.Float64() * 5
		}
		in.Links = append(in.Links, links)
		in.EdgeCost = append(in.EdgeCost, cost)
		in.CacheCap = append(in.CacheCap, rng.Intn(f+1))
		in.Bandwidth = append(in.Bandwidth, rng.Float64()*20)
	}
	return in, rng, data[4:]
}

// FuzzTracker drives randomized mutator sequences against the value
// oracle. After each op it checks what the op must have computed:
//   - Install: SBS n's block holds the upload's bits, each linked row is
//     yMinus + upload, and every off-link row is unchanged;
//   - RebuildRows: each row in range is the ascending-n sum of its linked
//     blocks, and the rows outside it are unchanged;
//   - RepairOverserveRows: no entry in range exceeds 1+1e-12, each
//     repaired entry is the ascending-n sum of the repaired blocks, and
//     every other entry is unchanged;
//   - Restore: the aggregate holds the source's bits.
func FuzzTracker(f *testing.F) {
	f.Add([]byte{2, 3, 3, 7, 0, 1, 2, 3, 4, 5, 0, 0, 2, 1})
	f.Add([]byte{1, 0, 1, 1, 0, 0})
	f.Add([]byte{2, 2, 2, 9, 0, 0, 1, 2, 0, 2, 3, 0, 4, 5, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, rng, ops := fuzzTrackerInstance(data)
		if len(ops) > 256 {
			ops = ops[:256]
		}
		y := NewRoutingPolicy(in)
		tr := NewAggregateTracker(in)
		upload := NewMat(in.U, in.F)
		yMinus := NewMat(in.U, in.F)
		before := NewMat(in.U, in.F)
		agg := tr.Aggregate()

		for i, op := range ops {
			before.CopyFrom(agg)
			switch op % 5 {
			case 0, 1: // install a fresh random block, or re-install the current one
				n := rng.Intn(in.N)
				if op%5 == 0 {
					for j := range upload.Data {
						upload.Data[j] = rng.Float64()
					}
				} else {
					upload.CopyFrom(y.SBS(n))
				}
				tr.YMinusInto(in, y, n, yMinus)
				tr.Install(in, y, n, yMinus, upload)
				for j, v := range y.SBS(n).Data {
					if !sameBits(v, upload.Data[j]) {
						t.Fatalf("op %d: install left block %d entry %d at %v, want the upload's %v", i, n, j, v, upload.Data[j])
					}
				}
				for u := 0; u < in.U; u++ {
					for f, v := range agg.Row(u) {
						want := before.At(u, f)
						if in.Links[n][u] {
							want = yMinus.At(u, f) + upload.At(u, f)
						}
						if !sameBits(v, want) {
							t.Fatalf("op %d: install on SBS %d left aggregate (%d,%d) at %v, want %v (linked=%v)", i, n, u, f, v, want, in.Links[n][u])
						}
					}
				}
			case 2: // merge a row range
				u0 := rng.Intn(in.U)
				u1 := u0 + 1 + rng.Intn(in.U-u0)
				tr.RebuildRows(in, y, u0, u1)
				for u := 0; u < in.U; u++ {
					for f, v := range agg.Row(u) {
						want := before.At(u, f)
						if u0 <= u && u < u1 {
							want = linkedSum(in, y, u, f)
						}
						if !sameBits(v, want) {
							t.Fatalf("op %d: rebuild of [%d,%d) left aggregate (%d,%d) at %v, want %v", i, u0, u1, u, f, v, want)
						}
					}
				}
			case 3: // repair a row range
				u0 := rng.Intn(in.U)
				u1 := u0 + 1 + rng.Intn(in.U-u0)
				tr.RepairOverserveRows(in, y, u0, u1)
				for u := 0; u < in.U; u++ {
					for f, v := range agg.Row(u) {
						repaired := u0 <= u && u < u1 && before.At(u, f) > 1+1e-12
						want := before.At(u, f)
						if repaired {
							want = linkedSum(in, y, u, f)
						}
						if !sameBits(v, want) {
							t.Fatalf("op %d: repair of [%d,%d) left aggregate (%d,%d) at %v, want %v (repaired=%v)", i, u0, u1, u, f, v, want, repaired)
						}
						if u0 <= u && u < u1 && v > 1+1e-12 {
							t.Fatalf("op %d: repair of [%d,%d) left aggregate (%d,%d) overserved at %v", i, u0, u1, u, f, v)
						}
					}
				}
			case 4: // wholesale re-synchronization
				src := y.Aggregate(in)
				if rng.Intn(2) == 1 {
					src = NewMat(in.U, in.F)
					src.CopyFrom(agg)
				}
				tr.Restore(src)
				for j, v := range agg.Data {
					if !sameBits(v, src.Data[j]) {
						t.Fatalf("op %d: restore left aggregate entry %d at %v, want the source's %v", i, j, v, src.Data[j])
					}
				}
			}
		}
	})
}

// TestRegenTrackerCorpus rewrites the committed FuzzTracker seeds; the
// corpus files under testdata/fuzz are committed so plain `go test`
// replays them (see TestCorpusCommitted). Run with
//
//	EDGECACHE_REGEN_CORPUS=1 go test -run TestRegenTrackerCorpus ./internal/model
func TestRegenTrackerCorpus(t *testing.T) {
	if os.Getenv("EDGECACHE_REGEN_CORPUS") == "" {
		t.Skip("set EDGECACHE_REGEN_CORPUS=1 to rewrite testdata/fuzz seed files")
	}
	writeCorpusEntry(t, "FuzzTracker", "seed-mixed-ops", []byte{2, 3, 3, 7, 0, 1, 2, 3, 4, 5, 0, 0, 2, 1})
	writeCorpusEntry(t, "FuzzTracker", "seed-min-dims", []byte{1, 0, 1, 1, 0, 0})
	writeCorpusEntry(t, "FuzzTracker", "seed-repair-heavy", []byte{2, 2, 2, 9, 0, 0, 1, 2, 0, 2, 3, 0, 4, 5, 0, 1, 2})
}
