package model

import "testing"

// Every //edgecache:noalloc function in this package gets an
// AllocsPerRun regression test: the edgelint noalloc analyzer proves the
// static call closure clean, and these tests pin the runtime behavior it
// cannot see (interface dispatch, escape-analysis regressions).

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, fn); avg != 0 {
		t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
	}
}

func TestMatAccessorsZeroAllocs(t *testing.T) {
	m := NewMat(4, 8)
	src := NewMat(4, 8)
	for u := 0; u < 4; u++ {
		for f := 0; f < 8; f++ {
			src.Set(u, f, float64(u*8+f))
		}
	}
	var sink float64
	assertZeroAllocs(t, "Mat.At", func() { sink += m.At(2, 3) })
	assertZeroAllocs(t, "Mat.Set", func() { m.Set(2, 3, 1.5) })
	assertZeroAllocs(t, "Mat.Add", func() { m.Add(2, 3, 0.5) })
	assertZeroAllocs(t, "Mat.Row", func() { sink += m.Row(1)[0] })
	assertZeroAllocs(t, "Mat.CopyFrom", func() { m.CopyFrom(src) })
	assertZeroAllocs(t, "Mat.AddFrom", func() { m.AddFrom(src) })
	assertZeroAllocs(t, "Mat.Zero", func() { m.Zero() })
	_ = sink
}

func TestTensor3AccessorsZeroAllocs(t *testing.T) {
	tr := NewTensor3(3, 4, 8)
	var sink float64
	assertZeroAllocs(t, "Tensor3.At", func() { sink += tr.At(1, 2, 3) })
	assertZeroAllocs(t, "Tensor3.Set", func() { tr.Set(1, 2, 3, 2.5) })
	assertZeroAllocs(t, "Tensor3.SBSRow", func() { sink += tr.SBSRow(2).At(0, 0) })
	_ = sink
}

func TestCachingPolicyZeroAllocs(t *testing.T) {
	in := testInstance()
	p := NewCachingPolicy(in)
	row := make([]bool, in.F)
	row[0], row[2] = true, true
	var sink bool
	assertZeroAllocs(t, "CachingPolicy.Get", func() { sink = p.Get(1, 2) })
	assertZeroAllocs(t, "CachingPolicy.Set", func() { p.Set(1, 2, true) })
	assertZeroAllocs(t, "CachingPolicy.SetRow", func() { p.SetRow(0, row) })
	_ = sink
}

func TestRoutingPolicyZeroAllocs(t *testing.T) {
	in := testInstance()
	p := NewRoutingPolicy(in)
	block := NewMat(in.U, in.F)
	block.Set(0, 0, 0.5)
	dst := NewMat(in.U, in.F)
	var sink float64
	assertZeroAllocs(t, "RoutingPolicy.At", func() { sink += p.At(1, 2, 3) })
	assertZeroAllocs(t, "RoutingPolicy.Set", func() { p.Set(1, 2, 3, 0.25) })
	assertZeroAllocs(t, "RoutingPolicy.SetSBS", func() { p.SetSBS(0, block) })
	assertZeroAllocs(t, "RoutingPolicy.SBS", func() { sink += p.SBS(1).At(0, 0) })
	assertZeroAllocs(t, "RoutingPolicy.Load", func() { sink += p.Load(in, 0) })
	assertZeroAllocs(t, "RoutingPolicy.AggregateInto", func() { p.AggregateInto(in, dst) })
	_ = sink
}

func TestAggregateTrackerZeroAllocs(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	y.Set(0, 0, 0, 0.5)
	y.Set(1, 1, 2, 0.25)
	tr := NewAggregateTracker(in)
	tr.Restore(y.Aggregate(in))
	yMinus := NewMat(in.U, in.F)
	upload := NewMat(in.U, in.F)
	upload.Set(0, 1, 0.125)
	var sink float64
	assertZeroAllocs(t, "AggregateTracker.Aggregate", func() { sink += tr.Aggregate().At(0, 0) })
	assertZeroAllocs(t, "AggregateTracker.YMinusInto", func() { tr.YMinusInto(in, y, 0, yMinus) })
	assertZeroAllocs(t, "AggregateTracker.Install", func() { tr.Install(in, y, 0, yMinus, upload) })
	_ = sink
}
