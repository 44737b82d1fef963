package model

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// This file pins the AggregateTracker epoch semantics the core dirty-set
// memo is keyed on (DESIGN.md "Incremental sweeps"): every mutating
// accessor must bump exactly the rows and blocks whose bits it changed —
// no more (a spurious bump only costs a wasted re-solve, but it defeats
// the optimisation) and no less (a missed bump breaks bit-identity).

// trackerSnap captures everything the epoch oracle compares: the aggregate
// row bits, the per-SBS routing block bits, and the epoch metadata.
type trackerSnap struct {
	aggBits   [][]uint64
	blockBits [][]uint64
	rowEp     []uint64
	blockEp   []uint64
	gen       uint64
}

func snapTracker(in *Instance, t *AggregateTracker, y *RoutingPolicy) trackerSnap {
	s := trackerSnap{gen: t.Gen()}
	agg := t.Aggregate()
	for u := 0; u < in.U; u++ {
		row := make([]uint64, in.F)
		for f, v := range agg.Row(u) {
			row[f] = math.Float64bits(v)
		}
		s.aggBits = append(s.aggBits, row)
		s.rowEp = append(s.rowEp, t.rowEpoch[u])
	}
	for n := 0; n < in.N; n++ {
		block := y.SBS(n)
		bits := make([]uint64, len(block.Data))
		for i, v := range block.Data {
			bits[i] = math.Float64bits(v)
		}
		s.blockBits = append(s.blockBits, bits)
		s.blockEp = append(s.blockEp, t.BlockEpoch(n))
	}
	return s
}

// rowChanged reports whether aggregate row u's bits differ from the snap.
func (s trackerSnap) rowChanged(t *AggregateTracker, u int) bool {
	for f, v := range t.Aggregate().Row(u) {
		if math.Float64bits(v) != s.aggBits[u][f] {
			return true
		}
	}
	return false
}

// blockChanged reports whether SBS n's routing block bits differ.
func (s trackerSnap) blockChanged(y *RoutingPolicy, n int) bool {
	for i, v := range y.SBS(n).Data {
		if math.Float64bits(v) != s.blockBits[n][i] {
			return true
		}
	}
	return false
}

// checkRowEpochsExact asserts the iff contract after a row mutator:
// rowEpoch[u] moved exactly when row u's bits changed. Epochs must never
// decrease.
func checkRowEpochsExact(t *testing.T, in *Instance, tr *AggregateTracker, before trackerSnap, ctx string) {
	t.Helper()
	for u := 0; u < in.U; u++ {
		ep := tr.rowEpoch[u]
		if ep < before.rowEp[u] {
			t.Fatalf("%s: rowEpoch[%d] decreased %d -> %d", ctx, u, before.rowEp[u], ep)
		}
		bumped := ep != before.rowEp[u]
		changed := before.rowChanged(tr, u)
		if bumped != changed {
			t.Fatalf("%s: rowEpoch[%d] bumped=%v but bits changed=%v", ctx, u, bumped, changed)
		}
	}
}

// checkBlockEpochsExact asserts the iff contract for block epochs.
func checkBlockEpochsExact(t *testing.T, in *Instance, tr *AggregateTracker, y *RoutingPolicy, before trackerSnap, ctx string) {
	t.Helper()
	for n := 0; n < in.N; n++ {
		ep := tr.BlockEpoch(n)
		if ep < before.blockEp[n] {
			t.Fatalf("%s: blockEpoch[%d] decreased %d -> %d", ctx, n, before.blockEp[n], ep)
		}
		bumped := ep != before.blockEp[n]
		changed := before.blockChanged(y, n)
		if bumped != changed {
			t.Fatalf("%s: blockEpoch[%d] bumped=%v but bits changed=%v", ctx, n, bumped, changed)
		}
	}
}

// installVia runs one well-formed YMinusInto/Install round for SBS n.
func installVia(in *Instance, tr *AggregateTracker, y *RoutingPolicy, n int, upload Mat) {
	yMinus := NewMat(in.U, in.F)
	tr.BeginPhase()
	tr.YMinusInto(in, y, n, yMinus)
	tr.Install(in, y, n, yMinus, upload)
}

// TestEpochInstallBumpsExactlyChangedRows: an install bumps the block and
// exactly the linked rows whose aggregate bits moved; re-installing the
// identical block bumps nothing (the converged-SBS case the memo lives on).
func TestEpochInstallBumpsExactlyChangedRows(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	tr := NewAggregateTracker(in)

	upload := NewMat(in.U, in.F)
	upload.Row(0)[1] = 0.25 // linked row, changes
	upload.Row(2)[3] = 0.5  // linked row, changes
	// Row 1 stays all-zero: its aggregate bits cannot move.

	before := snapTracker(in, tr, y)
	installVia(in, tr, y, 0, upload)
	checkRowEpochsExact(t, in, tr, before, "first install")
	checkBlockEpochsExact(t, in, tr, y, before, "first install")
	if tr.rowEpoch[0] == before.rowEp[0] || tr.rowEpoch[2] == before.rowEp[2] {
		t.Fatal("install did not bump the rows it changed")
	}
	if tr.rowEpoch[1] != before.rowEp[1] {
		t.Fatal("install bumped an untouched row")
	}
	if tr.BlockEpoch(0) == before.blockEp[0] {
		t.Fatal("install did not bump the written block")
	}
	if tr.BlockEpoch(1) != before.blockEp[1] {
		t.Fatal("install bumped a foreign block")
	}

	// The round-trip (agg − y_0) + y_0 reproduces the previous bits here,
	// so a converged re-install must leave every epoch untouched.
	quiet := snapTracker(in, tr, y)
	installVia(in, tr, y, 0, upload)
	checkRowEpochsExact(t, in, tr, quiet, "converged re-install")
	checkBlockEpochsExact(t, in, tr, y, quiet, "converged re-install")
	for u := 0; u < in.U; u++ {
		if tr.rowEpoch[u] != quiet.rowEp[u] {
			t.Fatalf("converged re-install bumped rowEpoch[%d]", u)
		}
	}
	if tr.BlockEpoch(0) != quiet.blockEp[0] {
		t.Fatal("converged re-install bumped the block epoch")
	}
}

// TestEpochInstallUnlinkedRowUntouched: SBS 1 is not linked to MU 2, so an
// install on SBS 1 must never stamp row 2 — even with garbage in the
// upload's unlinked row (the aggregate masks it away).
func TestEpochInstallUnlinkedRowUntouched(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	tr := NewAggregateTracker(in)

	upload := NewMat(in.U, in.F)
	upload.Row(0)[0] = 0.5
	upload.Row(2)[2] = 0.75 // unlinked for SBS 1: stored in the block, masked in the aggregate

	before := snapTracker(in, tr, y)
	installVia(in, tr, y, 1, upload)
	checkRowEpochsExact(t, in, tr, before, "unlinked install")
	if tr.rowEpoch[2] != before.rowEp[2] {
		t.Fatal("install on an unlinked SBS stamped the unlinked row")
	}
	if tr.rowEpoch[0] == before.rowEp[0] {
		t.Fatal("install did not stamp the linked row it changed")
	}
	if tr.BlockEpoch(1) == before.blockEp[1] {
		t.Fatal("block write did not stamp the block epoch")
	}
}

// TestEpochRebuildRowsExact: RebuildRows (and the scratch variant) stamp
// exactly the rows whose recomputed bits differ, and a second rebuild of
// the same range is a fixed point that stamps nothing.
func TestEpochRebuildRowsExact(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	tr := NewAggregateTracker(in)

	// Mutate y outside the tracker, then merge: only row 1 changes.
	y.Set(0, 1, 2, 0.4)
	before := snapTracker(in, tr, y)
	tr.BeginPhase()
	tr.RebuildRows(in, y, 0, in.U)
	checkRowEpochsExact(t, in, tr, before, "rebuild")
	if tr.rowEpoch[1] == before.rowEp[1] {
		t.Fatal("rebuild did not stamp the changed row")
	}
	if tr.rowEpoch[0] != before.rowEp[0] || tr.rowEpoch[2] != before.rowEp[2] {
		t.Fatal("rebuild stamped an unchanged row")
	}

	// Fixed point: rebuilding again (serial or sharded scratch) is quiet.
	quiet := snapTracker(in, tr, y)
	tr.BeginPhase()
	scratch := make([]float64, in.F)
	tr.RebuildRowsScratch(in, y, 0, in.U, scratch)
	checkRowEpochsExact(t, in, tr, quiet, "rebuild fixed point")
	for u := 0; u < in.U; u++ {
		if tr.rowEpoch[u] != quiet.rowEp[u] {
			t.Fatalf("idempotent rebuild stamped rowEpoch[%d]", u)
		}
	}
}

// TestEpochRepairOverserveExact: the repair stamps exactly the overserved
// rows and exactly the blocks whose nonzero shares it scaled — a linked
// block with a zero share keeps both its bits and its epoch.
func TestEpochRepairOverserveExact(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	tr := NewAggregateTracker(in)

	// Row 0 overserved by SBS 0 alone; SBS 1 is linked to row 0 but holds
	// a zero share there. Row 1 is served within bounds.
	y.Set(0, 0, 0, 1.5)
	y.Set(1, 1, 1, 0.9)
	tr.Restore(y.Aggregate(in))

	before := snapTracker(in, tr, y)
	tr.BeginPhase()
	tr.RepairOverserveRows(in, y, 0, in.U)
	checkRowEpochsExact(t, in, tr, before, "repair")
	checkBlockEpochsExact(t, in, tr, y, before, "repair")
	if tr.rowEpoch[0] == before.rowEp[0] {
		t.Fatal("repair did not stamp the overserved row")
	}
	if tr.rowEpoch[1] != before.rowEp[1] {
		t.Fatal("repair stamped an in-bounds row")
	}
	if tr.BlockEpoch(0) == before.blockEp[0] {
		t.Fatal("repair did not stamp the scaled block")
	}
	if tr.BlockEpoch(1) != before.blockEp[1] {
		t.Fatal("repair stamped a block whose shares it never touched")
	}
	if got := y.At(0, 0, 0); got > 1+1e-12 {
		t.Fatalf("repair left an overserve: %v", got)
	}

	// Already-repaired rows are a fixed point.
	quiet := snapTracker(in, tr, y)
	tr.BeginPhase()
	tr.RepairOverserveRows(in, y, 0, in.U)
	for u := 0; u < in.U; u++ {
		if tr.rowEpoch[u] != quiet.rowEp[u] {
			t.Fatalf("idempotent repair stamped rowEpoch[%d]", u)
		}
	}
	for n := 0; n < in.N; n++ {
		if tr.BlockEpoch(n) != quiet.blockEp[n] {
			t.Fatalf("idempotent repair stamped blockEpoch[%d]", n)
		}
	}
}

// TestEpochResetRestoreInvalidate: wholesale re-synchronization must bump
// the generation and stamp every row and block — even when the restored
// bits are identical — so any memo keyed on the old tracker state misses.
func TestEpochResetRestoreInvalidate(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	tr := NewAggregateTracker(in)
	y.Set(0, 0, 0, 0.5)
	tr.Restore(y.Aggregate(in))

	for _, tc := range []struct {
		name string
		call func()
	}{
		{"restore-rebuilt", func() { tr.Restore(y.Aggregate(in)) }},
		{"restore-identical", func() {
			clone := NewMat(in.U, in.F)
			clone.CopyFrom(tr.Aggregate())
			tr.Restore(clone)
		}},
	} {
		before := snapTracker(in, tr, y)
		tc.call()
		if tr.Gen() == before.gen {
			t.Fatalf("%s did not bump the generation", tc.name)
		}
		for u := 0; u < in.U; u++ {
			if tr.rowEpoch[u] <= before.rowEp[u] {
				t.Fatalf("%s left rowEpoch[%d] at %d", tc.name, u, tr.rowEpoch[u])
			}
		}
		for n := 0; n < in.N; n++ {
			if tr.BlockEpoch(n) <= before.blockEp[n] {
				t.Fatalf("%s left blockEpoch[%d] at %d", tc.name, n, tr.BlockEpoch(n))
			}
		}
	}
}

// TestEpochMarkBlockDirtyAndLinkedRowMax: MarkBlockDirty stamps only its
// block, and LinkedRowEpochMax moves exactly when a linked row moved —
// the two halves of the core memo key.
func TestEpochMarkBlockDirtyAndLinkedRowMax(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	tr := NewAggregateTracker(in)

	before := snapTracker(in, tr, y)
	max0, max1 := tr.LinkedRowEpochMax(in, 0), tr.LinkedRowEpochMax(in, 1)

	tr.BeginPhase()
	tr.MarkBlockDirty(1)
	if tr.BlockEpoch(1) == before.blockEp[1] {
		t.Fatal("MarkBlockDirty did not stamp its block")
	}
	if tr.BlockEpoch(0) != before.blockEp[0] {
		t.Fatal("MarkBlockDirty stamped a foreign block")
	}
	for u := 0; u < in.U; u++ {
		if tr.rowEpoch[u] != before.rowEp[u] {
			t.Fatal("MarkBlockDirty stamped a row")
		}
	}

	// Row 2 is linked to SBS 0 only: changing it must move SBS 0's max and
	// leave SBS 1's untouched.
	upload := NewMat(in.U, in.F)
	upload.Row(2)[0] = 0.3
	installVia(in, tr, y, 0, upload)
	if tr.LinkedRowEpochMax(in, 0) == max0 {
		t.Fatal("linked row changed but LinkedRowEpochMax(0) did not move")
	}
	if tr.LinkedRowEpochMax(in, 1) != max1 {
		t.Fatal("LinkedRowEpochMax(1) moved without a linked-row change")
	}
}

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

// FuzzTrackerEpochs drives randomized mutator sequences against the
// brute-force oracle: snapshot all aggregate-row and routing-block bits
// before each mutation, apply it, and require epoch-diff ⟺ bit-diff for
// every row and block (modulo the documented wholesale invalidations).
func FuzzTrackerEpochs(f *testing.F) {
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

		for i, op := range ops {
			before := snapTracker(in, tr, y)
			var wholesale bool
			switch op % 6 {
			case 0: // install a fresh random block
				n := rng.Intn(in.N)
				for u := 0; u < in.U; u++ {
					for j, row := 0, upload.Row(u); j < in.F; j++ {
						row[j] = rng.Float64()
					}
				}
				installVia(in, tr, y, n, upload)
			case 1: // re-install the current block (converged round-trip)
				n := rng.Intn(in.N)
				upload.CopyFrom(y.SBS(n))
				installVia(in, tr, y, n, upload)
			case 2: // merge a row range
				u0 := rng.Intn(in.U)
				u1 := u0 + 1 + rng.Intn(in.U-u0)
				tr.BeginPhase()
				tr.RebuildRows(in, y, u0, u1)
			case 3: // repair a row range
				u0 := rng.Intn(in.U)
				u1 := u0 + 1 + rng.Intn(in.U-u0)
				tr.BeginPhase()
				tr.RepairOverserveRows(in, y, u0, u1)
			case 4: // wholesale re-synchronization
				wholesale = true
				if rng.Intn(2) == 0 {
					tr.Restore(y.Aggregate(in))
				} else {
					clone := NewMat(in.U, in.F)
					clone.CopyFrom(tr.Aggregate())
					tr.Restore(clone)
				}
			case 5: // explicit dirty mark
				n := rng.Intn(in.N)
				tr.BeginPhase()
				tr.MarkBlockDirty(n)
				if tr.BlockEpoch(n) == before.blockEp[n] {
					t.Fatalf("op %d: MarkBlockDirty(%d) did not stamp", i, n)
				}
				before.blockEp[n] = tr.BlockEpoch(n)
			}

			if wholesale {
				if tr.Gen() == before.gen {
					t.Fatalf("op %d: wholesale resync did not bump the generation", i)
				}
				for u := 0; u < in.U; u++ {
					if tr.rowEpoch[u] <= before.rowEp[u] {
						t.Fatalf("op %d: resync left rowEpoch[%d] behind", i, u)
					}
				}
				for n := 0; n < in.N; n++ {
					if tr.BlockEpoch(n) <= before.blockEp[n] {
						t.Fatalf("op %d: resync left blockEpoch[%d] behind", i, n)
					}
				}
				continue
			}
			if tr.Gen() != before.gen {
				t.Fatalf("op %d: row/block mutator bumped the generation", i)
			}
			checkRowEpochsExact(t, in, tr, before, "fuzz op")
			checkBlockEpochsExact(t, in, tr, y, before, "fuzz op")
		}
	})
}

// TestRegenEpochCorpus rewrites the committed FuzzTrackerEpochs seeds; the
// corpus files under testdata/fuzz are committed so plain `go test`
// replays them (see TestCorpusCommitted). Run with
//
//	EDGECACHE_REGEN_CORPUS=1 go test -run TestRegenEpochCorpus ./internal/model
func TestRegenEpochCorpus(t *testing.T) {
	if os.Getenv("EDGECACHE_REGEN_CORPUS") == "" {
		t.Skip("set EDGECACHE_REGEN_CORPUS=1 to rewrite testdata/fuzz seed files")
	}
	writeCorpusEntry(t, "FuzzTrackerEpochs", "seed-mixed-ops", []byte{2, 3, 3, 7, 0, 1, 2, 3, 4, 5, 0, 0, 2, 1})
	writeCorpusEntry(t, "FuzzTrackerEpochs", "seed-min-dims", []byte{1, 0, 1, 1, 0, 0})
	writeCorpusEntry(t, "FuzzTrackerEpochs", "seed-repair-heavy", []byte{2, 2, 2, 9, 0, 0, 1, 2, 0, 2, 3, 0, 4, 5, 0, 1, 2})
}
