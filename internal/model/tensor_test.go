package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	if m.U != 2 || m.F != 3 || len(m.Data) != 6 {
		t.Fatalf("NewMat(2,3) = %dx%d with %d entries", m.U, m.F, len(m.Data))
	}
	m.Set(1, 2, 0.5)
	if m.At(1, 2) != 0.5 || m.Data[1*3+2] != 0.5 {
		t.Fatal("Set/At do not address Data[u*F+f]")
	}
	m.Add(1, 2, 0.25)
	if m.At(1, 2) != 0.75 {
		t.Fatalf("Add: got %v, want 0.75", m.At(1, 2))
	}
	// Row is a view: mutations are visible through the matrix.
	m.Row(0)[1] = 7
	if m.At(0, 1) != 7 {
		t.Fatal("Row is not a view of the backing array")
	}
	// Rows materializes fresh storage.
	rows := m.Rows()
	rows[0][1] = -1
	if m.At(0, 1) != 7 {
		t.Fatal("Rows shares storage with the matrix")
	}
	cl := m.Clone()
	cl.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone shares storage")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left nonzero entries")
		}
	}
}

func TestMatFromRows(t *testing.T) {
	m, err := MatFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("MatFromRows misplaced entries")
	}
	if _, err := MatFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows: want error")
	}
	// Empty input yields a zero-shape matrix (callers dims-check at the
	// boundary), not an error.
	empty, err := MatFromRows(nil)
	if err != nil || empty.U != 0 || empty.F != 0 {
		t.Errorf("MatFromRows(nil) = %dx%d, %v; want 0x0, nil", empty.U, empty.F, err)
	}
}

func TestMatCopyFromPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched shape did not panic")
		}
	}()
	NewMat(2, 3).CopyFrom(NewMat(3, 2))
}

func TestTensor3Basics(t *testing.T) {
	ts := NewTensor3(2, 3, 4)
	ts.Set(1, 2, 3, 9)
	if ts.At(1, 2, 3) != 9 || ts.Data[(1*3+2)*4+3] != 9 {
		t.Fatal("Set/At do not address Data[(n*U+u)*F+f]")
	}
	// SBSRow is a zero-copy U×F view of block n.
	block := ts.SBSRow(1)
	if block.U != 3 || block.F != 4 {
		t.Fatalf("SBSRow shape %dx%d, want 3x4", block.U, block.F)
	}
	if block.At(2, 3) != 9 {
		t.Fatal("SBSRow does not alias the tensor")
	}
	block.Set(0, 0, 5)
	if ts.At(1, 0, 0) != 5 {
		t.Fatal("SBSRow mutation invisible in tensor")
	}
	if ts.At(0, 0, 0) != 0 {
		t.Fatal("SBSRow(1) aliased block 0")
	}
	cl := ts.Clone()
	cl.Set(0, 0, 0, 1)
	if ts.At(0, 0, 0) == 1 {
		t.Fatal("Clone shares storage")
	}
}

// randomPolicyInstance draws a random instance plus a random routing policy
// (including some entries on unlinked pairs, which the masked operations
// must ignore).
func randomPolicyInstance(rng *rand.Rand, n, u, f int) (*Instance, *RoutingPolicy, *CachingPolicy) {
	in := &Instance{
		N: n, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, n),
		CacheCap:  make([]int, n),
		Bandwidth: make([]float64, n),
		EdgeCost:  make([][]float64, n),
		BSCost:    make([]float64, u),
	}
	for i := 0; i < u; i++ {
		in.Demand[i] = make([]float64, f)
		for j := 0; j < f; j++ {
			in.Demand[i][j] = rng.Float64() * 10
		}
		in.BSCost[i] = 50 + rng.Float64()*100
	}
	for i := 0; i < n; i++ {
		in.Links[i] = make([]bool, u)
		in.EdgeCost[i] = make([]float64, u)
		for j := 0; j < u; j++ {
			in.Links[i][j] = rng.Float64() < 0.6
			in.EdgeCost[i][j] = rng.Float64() * 5
		}
		in.CacheCap[i] = rng.Intn(f + 1)
		in.Bandwidth[i] = rng.Float64() * 50
	}
	y := NewRoutingPolicy(in)
	x := NewCachingPolicyDims(n, f)
	for i := 0; i < n; i++ {
		for j := 0; j < u; j++ {
			for k := 0; k < f; k++ {
				if rng.Float64() < 0.4 {
					y.Set(i, j, k, rng.Float64())
				}
			}
		}
		for k := 0; k < f; k++ {
			x.Set(i, k, rng.Float64() < 0.3)
		}
	}
	return in, y, x
}

// Reference implementations on nested slices, written exactly like the
// seed's nested-loop code (same iteration order, same accumulation order),
// so the flat-tensor implementations can be compared bit-for-bit.

func refAggregate(in *Instance, y *RoutingPolicy) [][]float64 {
	agg := in.NewUFMat().Rows()
	for n := 0; n < in.N; n++ {
		for u := 0; u < in.U; u++ {
			if !in.Links[n][u] {
				continue
			}
			for f := 0; f < in.F; f++ {
				agg[u][f] += y.At(n, u, f)
			}
		}
	}
	return agg
}

func refYMinus(in *Instance, y *RoutingPolicy, except int) [][]float64 {
	agg := in.NewUFMat().Rows()
	for n := 0; n < in.N; n++ {
		if n == except {
			continue
		}
		for u := 0; u < in.U; u++ {
			if !in.Links[n][u] {
				continue
			}
			for f := 0; f < in.F; f++ {
				agg[u][f] += y.At(n, u, f)
			}
		}
	}
	return agg
}

func refEdgeCost(in *Instance, y *RoutingPolicy) float64 {
	var cost float64
	for n := 0; n < in.N; n++ {
		for u := 0; u < in.U; u++ {
			if !in.Links[n][u] {
				continue
			}
			for f := 0; f < in.F; f++ {
				cost += in.EdgeCost[n][u] * y.At(n, u, f) * in.Demand[u][f]
			}
		}
	}
	return cost
}

func refBackhaulCost(in *Instance, agg [][]float64) float64 {
	var cost float64
	for u := 0; u < in.U; u++ {
		for f := 0; f < in.F; f++ {
			residual := 1 - agg[u][f]
			if residual < 0 {
				residual = 0
			}
			cost += in.BSCost[u] * residual * in.Demand[u][f]
		}
	}
	return cost
}

func refLoad(in *Instance, y *RoutingPolicy, n int) float64 {
	var load float64
	for u := 0; u < in.U; u++ {
		if !in.Links[n][u] {
			continue
		}
		for f := 0; f < in.F; f++ {
			load += y.At(n, u, f) * in.Demand[u][f]
		}
	}
	return load
}

// TestFlatMatchesNestedReference proves the flat-tensor aggregate, cost
// and load computations reproduce the nested-slice reference bit-for-bit
// (==, no tolerance) on randomized instances: the refactor changed the
// memory layout, not a single floating-point operation.
func TestFlatMatchesNestedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n, u, f := 1+rng.Intn(5), 1+rng.Intn(8), 1+rng.Intn(10)
		in, y, _ := randomPolicyInstance(rng, n, u, f)

		agg := y.Aggregate(in)
		ref := refAggregate(in, y)
		for uu := 0; uu < u; uu++ {
			for ff := 0; ff < f; ff++ {
				if agg.At(uu, ff) != ref[uu][ff] {
					t.Fatalf("trial %d: Aggregate[%d][%d] = %v, ref %v", trial, uu, ff, agg.At(uu, ff), ref[uu][ff])
				}
			}
		}

		if got, want := EdgeServingCost(in, y), refEdgeCost(in, y); got != want {
			t.Fatalf("trial %d: EdgeServingCost = %v, ref %v", trial, got, want)
		}
		if got, want := BackhaulServingCost(in, y), refBackhaulCost(in, ref); got != want {
			t.Fatalf("trial %d: BackhaulServingCost = %v, ref %v", trial, got, want)
		}
		for sbs := 0; sbs < n; sbs++ {
			if got, want := y.Load(in, sbs), refLoad(in, y, sbs); got != want {
				t.Fatalf("trial %d: Load(%d) = %v, ref %v", trial, sbs, got, want)
			}
		}
	}
}

// TestFeasibilityMatchesNestedReference checks that the accessor-based
// feasibility pass flags exactly the same violation set as a nested-slice
// evaluation of the constraint system.
func TestFeasibilityMatchesNestedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n, u, f := 1+rng.Intn(4), 1+rng.Intn(6), 1+rng.Intn(8)
		in, y, x := randomPolicyInstance(rng, n, u, f)
		vs := CheckFeasibility(in, x, y)
		seen := map[string]bool{}
		for _, v := range vs {
			seen[v.Constraint+"@"+v.Where] = true
		}
		// Independent nested re-check of eq. 2 (routing requires cache) and
		// the no-link rule — the families random policies trip most often.
		for i := 0; i < n; i++ {
			for j := 0; j < u; j++ {
				for k := 0; k < f; k++ {
					v := y.At(i, j, k)
					if v <= FeasibilityTolerance || v > 1+FeasibilityTolerance {
						continue
					}
					key := func(c string) string {
						return c + "@" + violationWhere(i, j, k)
					}
					if !x.Get(i, k) && !seen[key("routing-requires-cache (2)")] && len(vs) < 100 {
						t.Fatalf("trial %d: missing eq.2 violation at n=%d u=%d f=%d", trial, i, j, k)
					}
					if !in.Links[i][j] && !seen[key("no-link")] && len(vs) < 100 {
						t.Fatalf("trial %d: missing no-link violation at n=%d u=%d f=%d", trial, i, j, k)
					}
				}
			}
		}
	}
}

func violationWhere(n, u, f int) string {
	return "n=" + itoa(n) + " u=" + itoa(u) + " f=" + itoa(f)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestLoadMasksOffLinkEntries is the regression test for the Load fix: an
// off-link routing entry is structurally unservable and must not inflate
// the bandwidth accounting (it previously did, making feasible policies
// look bandwidth-infeasible whenever a noised or adversarial upload put
// mass on an unlinked pair).
func TestLoadMasksOffLinkEntries(t *testing.T) {
	in := testInstance() // SBS1 has no link to MU2
	y := NewRoutingPolicy(in)
	y.Set(1, 2, 0, 1) // off-link: must not count
	if got := y.Load(in, 1); got != 0 {
		t.Fatalf("Load counted off-link entry: %v, want 0", got)
	}
	y.Set(1, 0, 0, 0.5) // linked: 0.5·λ_00 = 0.5·10
	if got, want := y.Load(in, 1), 5.0; got != want {
		t.Fatalf("Load(1) = %v, want %v", got, want)
	}
}

// TestAggregateTrackerMatchesRebuild drives the tracker through randomized
// sweep sequences and checks it stays consistent with the full rebuild.
// The incremental path reassociates float additions, so the comparison
// uses a tolerance far below FeasibilityTolerance but above ulp drift.
func TestAggregateTrackerMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		n, u, f := 2+rng.Intn(4), 1+rng.Intn(6), 1+rng.Intn(8)
		in, _, _ := randomPolicyInstance(rng, n, u, f)
		y := NewRoutingPolicy(in)
		tracker := NewAggregateTracker(in)
		yMinus := in.NewUFMat()
		upload := in.NewUFMat()
		for phase := 0; phase < 3*n; phase++ {
			sbs := phase % n
			tracker.YMinusInto(in, y, sbs, yMinus)
			// yMinus must equal the reference y_{-n} within drift tolerance.
			want := refYMinus(in, y, sbs)
			for uu, row := range want {
				for ff, v := range row {
					if got := yMinus.At(uu, ff); math.Abs(got-v) > 1e-12 {
						t.Fatalf("trial %d phase %d: yMinus drifted: %v vs %v", trial, phase, got, v)
					}
				}
			}
			for i := range upload.Data {
				upload.Data[i] = 0
				if rng.Float64() < 0.3 {
					upload.Data[i] = rng.Float64()
				}
			}
			tracker.Install(in, y, sbs, yMinus, upload)
			// The installed block must be exactly the upload.
			block := y.SBS(sbs)
			for i := range upload.Data {
				if block.Data[i] != upload.Data[i] {
					t.Fatalf("trial %d: Install did not copy the upload", trial)
				}
			}
			// And the running aggregate must track the full rebuild.
			full := y.Aggregate(in)
			agg := tracker.Aggregate()
			for i := range full.Data {
				if math.Abs(agg.Data[i]-full.Data[i]) > 1e-12 {
					t.Fatalf("trial %d phase %d: aggregate drifted: %v vs %v", trial, phase, agg.Data[i], full.Data[i])
				}
			}
		}
	}
}

func TestCachingPolicyBitset(t *testing.T) {
	// Exercise word boundaries: F = 130 spans three words per row.
	p := NewCachingPolicyDims(2, 130)
	for _, f := range []int{0, 63, 64, 127, 128, 129} {
		p.Set(1, f, true)
		if !p.Get(1, f) {
			t.Fatalf("Get(1,%d) false after Set", f)
		}
		if p.Get(0, f) {
			t.Fatalf("Set(1,%d) leaked into row 0", f)
		}
	}
	if got := p.Count(1); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := p.Contents(1); len(got) != 6 || got[0] != 0 || got[5] != 129 {
		t.Fatalf("Contents = %v", got)
	}
	p.Set(1, 63, false)
	if p.Get(1, 63) || p.Count(1) != 5 {
		t.Fatal("clearing a bit failed")
	}

	q := p.Clone()
	if p.DiffCount(q) != 0 {
		t.Fatal("clone differs from original")
	}
	q.Set(0, 129, true)
	if p.DiffCount(q) != 1 {
		t.Fatalf("DiffCount = %d, want 1", p.DiffCount(q))
	}

	row := make([]bool, 130)
	row[1], row[128] = true, true
	p.SetRow(0, row)
	if got := p.RowBools(0); !got[1] || !got[128] || got[0] {
		t.Fatalf("SetRow/RowBools round trip failed: %v", got)
	}
}

func TestSetRowPanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetRow with wrong length did not panic")
		}
	}()
	NewCachingPolicyDims(1, 4).SetRow(0, make([]bool, 3))
}

// FuzzMatIndex fuzzes the Mat stride arithmetic: At/Set/Row must agree
// with the documented flat layout Data[u*F+f] for arbitrary shapes and
// indices.
func FuzzMatIndex(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint8(1), 1.5)
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), -2.25)
	f.Add(uint8(7), uint8(9), uint8(6), uint8(8), 0.0)
	f.Fuzz(func(t *testing.T, uDim, fDim, u, ff uint8, v float64) {
		U := 1 + int(uDim)%16
		F := 1 + int(fDim)%16
		ui := int(u) % U
		fi := int(ff) % F
		m := NewMat(U, F)
		m.Set(ui, fi, v)
		if math.Float64bits(m.At(ui, fi)) != math.Float64bits(v) {
			t.Fatalf("At(%d,%d) = %v after Set %v", ui, fi, m.At(ui, fi), v)
		}
		if math.Float64bits(m.Data[ui*F+fi]) != math.Float64bits(v) {
			t.Fatalf("Data[%d*%d+%d] does not hold the value", ui, F, fi)
		}
		if math.Float64bits(m.Row(ui)[fi]) != math.Float64bits(v) {
			t.Fatalf("Row(%d)[%d] does not alias the entry", ui, fi)
		}
		// Every other entry stays zero: the write did not smear.
		for i, d := range m.Data {
			if i != ui*F+fi && d != 0 {
				t.Fatalf("Set(%d,%d) also wrote Data[%d]", ui, fi, i)
			}
		}
	})
}

// FuzzTensor3Index fuzzes the Tensor3 stride arithmetic and the SBSRow
// view: At/Set must agree with Data[(n*U+u)*F+f] and with the Mat view of
// the same block.
func FuzzTensor3Index(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint8(1), uint8(2), uint8(3), 9.0)
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), -1.0)
	f.Fuzz(func(t *testing.T, nDim, uDim, fDim, n, u, ff uint8, v float64) {
		N := 1 + int(nDim)%8
		U := 1 + int(uDim)%8
		F := 1 + int(fDim)%8
		ni, ui, fi := int(n)%N, int(u)%U, int(ff)%F
		ts := NewTensor3(N, U, F)
		ts.Set(ni, ui, fi, v)
		if math.Float64bits(ts.At(ni, ui, fi)) != math.Float64bits(v) {
			t.Fatalf("At(%d,%d,%d) != Set value", ni, ui, fi)
		}
		if math.Float64bits(ts.Data[(ni*U+ui)*F+fi]) != math.Float64bits(v) {
			t.Fatalf("Data[(%d*%d+%d)*%d+%d] does not hold the value", ni, U, ui, F, fi)
		}
		block := ts.SBSRow(ni)
		if math.Float64bits(block.At(ui, fi)) != math.Float64bits(v) {
			t.Fatalf("SBSRow(%d).At(%d,%d) does not alias the tensor", ni, ui, fi)
		}
		for i, d := range ts.Data {
			if i != (ni*U+ui)*F+fi && d != 0 {
				t.Fatalf("Set(%d,%d,%d) also wrote Data[%d]", ni, ui, fi, i)
			}
		}
	})
}

// FuzzCachingPolicyBitset fuzzes the packed bitset against a plain []bool
// model.
func FuzzCachingPolicyBitset(f *testing.F) {
	f.Add(uint8(2), uint8(70), uint16(0x1234))
	f.Fuzz(func(t *testing.T, nDim, fDim uint8, ops uint16) {
		N := 1 + int(nDim)%4
		F := 1 + int(fDim)%130
		p := NewCachingPolicyDims(N, F)
		mirror := make([][]bool, N)
		for i := range mirror {
			mirror[i] = make([]bool, F)
		}
		// Drive 16 pseudo-ops from the fuzz input.
		state := uint32(ops) + 1
		for op := 0; op < 16; op++ {
			state = state*1664525 + 1013904223
			n := int(state>>8) % N
			ff := int(state>>16) % F
			val := state&1 == 0
			p.Set(n, ff, val)
			mirror[n][ff] = val
		}
		for n := 0; n < N; n++ {
			count := 0
			for ff := 0; ff < F; ff++ {
				if p.Get(n, ff) != mirror[n][ff] {
					t.Fatalf("Get(%d,%d) = %v, mirror %v", n, ff, p.Get(n, ff), mirror[n][ff])
				}
				if mirror[n][ff] {
					count++
				}
			}
			if p.Count(n) != count {
				t.Fatalf("Count(%d) = %d, mirror %d", n, p.Count(n), count)
			}
		}
	})
}
