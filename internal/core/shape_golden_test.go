package core

import (
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

// shapeInstance draws one instance the way cmd/edgebench's genInstance
// does, draw for draw: demand present with probability 0.7 and uniform on
// [0,20), backhaul cost on [100,150), links with probability density, edge
// cost on [1,4), cache capacity uniform on [1,F], bandwidth on [5,45).
func shapeInstance(seed int64, n, u, f int, density float64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &model.Instance{
		N: n, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, n),
		CacheCap:  make([]int, n),
		Bandwidth: make([]float64, n),
		EdgeCost:  make([][]float64, n),
		BSCost:    make([]float64, u),
	}
	for i := 0; i < u; i++ {
		inst.Demand[i] = make([]float64, f)
		for j := 0; j < f; j++ {
			if rng.Float64() < 0.7 {
				inst.Demand[i][j] = rng.Float64() * 20
			}
		}
		inst.BSCost[i] = 100 + rng.Float64()*50
	}
	for i := 0; i < n; i++ {
		inst.Links[i] = make([]bool, u)
		inst.EdgeCost[i] = make([]float64, u)
		for j := 0; j < u; j++ {
			inst.Links[i][j] = rng.Float64() < density
			inst.EdgeCost[i][j] = 1 + rng.Float64()*3
		}
		inst.CacheCap[i] = 1 + rng.Intn(f)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

// benchShapes are edgebench's four workload shapes. jacobi marks the one
// whose coordinator run uses the Jacobi engine, as edgebench's does.
var benchShapes = []struct {
	name    string
	n, u, f int
	density float64
	jacobi  bool
}{
	{"sparse", 100, 60, 60, 0.05, false},
	{"dense", 50, 100, 100, 0.6, true},
	{"tcp", 10, 60, 60, 0.3, false},
	{"ckpt", 10, 40, 40, 0.2, false},
}

// shapeGoldenSeeds are edgebench's default seed and its held-out seed.
var shapeGoldenSeeds = []int64{99, 7}

// shapeGolden pins one {solve, run} digest pair per shape and seed, in
// benchShapes × shapeGoldenSeeds order.
var shapeGolden = [][2]uint64{
	{0xf47c3a8e6762f562, 0x222edd0ff674e63c}, // sparse seed 99
	{0x42b362f83fb965b7, 0xeaee698ac8d6cafc}, // sparse seed 7
	{0x4864f24adad07061, 0x85c1bd5586eb1d1c}, // dense seed 99
	{0x2d66cdcb77ac2286, 0xe37e7b0f24510e51}, // dense seed 7
	{0x2830d3d8481453e, 0x897bcd615edbdaaa},  // tcp seed 99
	{0xfed35e3c9c668706, 0x202a0bc888e87932}, // tcp seed 7
	{0xc87defbfead05dda, 0xdccd2b4a12e8a436}, // ckpt seed 99
	{0x8b6fc21362090aa8, 0x8b3cb7f25ec7be2a}, // ckpt seed 7
}

// hashResult writes a Solve result's Cache, Routing bits, Gain bits and
// DualIters into h.
func hashResult(h hash.Hash64, res *Result) {
	for _, c := range res.Cache {
		if c {
			hashU64(h, 1)
		} else {
			hashU64(h, 0)
		}
	}
	for _, v := range res.Routing.Data {
		hashU64(h, math.Float64bits(v))
	}
	hashU64(h, math.Float64bits(res.Gain))
	hashU64(h, uint64(res.DualIters))
}

// shapeGoldenDigests returns the {solve, run} digest pair of one shape
// and seed: every SBS's Solve against a zero y₋ₙ and a fillYMinus one,
// then one short coordinator run.
func shapeGoldenDigests(t *testing.T, n, u, f int, density float64, jacobi bool, seed int64) [2]uint64 {
	t.Helper()
	inst := shapeInstance(seed, n, u, f, density)
	hs := fnv.New64a()
	zero := inst.NewUFMat()
	served := inst.NewUFMat()
	fillYMinus(served)
	for sbs := 0; sbs < inst.N; sbs++ {
		sub, err := NewSubproblem(inst, sbs, DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, yMinus := range []model.Mat{zero, served} {
			res, err := sub.Solve(yMinus)
			if err != nil {
				t.Fatal(err)
			}
			hashResult(hs, res)
		}
	}

	cfg := DefaultConfig()
	cfg.MaxSweeps = 2
	if jacobi {
		cfg.Engine = EngineJacobi
		cfg.MaxSweeps = 1
	}
	cfg.Gamma = 1e-300 // exhaust the sweep budget
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	hr := fnv.New64a()
	for _, v := range run.History {
		hashU64(hr, math.Float64bits(v))
	}
	hashU64(hr, uint64(run.Sweeps))
	if run.Converged {
		hashU64(hr, 1)
	}
	return [2]uint64{hs.Sum64(), hr.Sum64()}
}

// TestSolveShapeGolden pins Subproblem.Solve and a coordinator run bit for
// bit at the benchmark's instance shapes, where the routed items are a
// small share of thousands (TestSolveGolden's small instances route a
// large share of theirs).
func TestSolveShapeGolden(t *testing.T) {
	i := 0
	for _, sh := range benchShapes {
		for _, seed := range shapeGoldenSeeds {
			got := shapeGoldenDigests(t, sh.n, sh.u, sh.f, sh.density, sh.jacobi, seed)
			if got != shapeGolden[i] {
				t.Errorf("%s seed %d: digests {%#x, %#x}, want {%#x, %#x}",
					sh.name, seed, got[0], got[1], shapeGolden[i][0], shapeGolden[i][1])
			}
			i++
		}
	}
}
