package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

// multiBSGoldenCase is one pinned multi-BS run: a region layout, LPPM on or
// off, and the exact bits the run must reproduce.
type multiBSGoldenCase struct {
	name    string
	regions [][]int
	private bool
	// want pins the trajectory bit for bit.
	history   []uint64 // math.Float64bits of RunResult.History
	routing   uint64   // routingDigest of the returned routing
	sweeps    int
	converged bool
}

// multiBSGoldenCases covers the layouts whose summation orders differ:
// one region (Algorithm 1), two interleaved regions, one region per SBS
// (the Jacobi limit) and a two-region layout listed out of index order.
var multiBSGoldenCases = []multiBSGoldenCase{
	{
		name: "one-region", regions: [][]int{{0, 1, 2, 3}},
		history: []uint64{0x40ec8c4dad6351d6, 0x40ec8c4dad6351d6},
		routing: 0x572447426a0de54f, sweeps: 2, converged: true,
	},
	{
		name: "one-region-lppm", regions: [][]int{{0, 1, 2, 3}}, private: true,
		history: []uint64{0x40ef1330d193d5e8, 0x40ee81f9952e461e, 0x40ef1b88a87a88ad, 0x40ee5b001fd5ed95, 0x40eef5452dd6a474, 0x40ee456cc006b319, 0x40eece9e503edef2, 0x40ee82c2721ab9d7, 0x40eed5ddfea03371, 0x40ee8ae0f7fd244e},
		routing: 0x37e5b334a288529c, sweeps: 10, converged: false,
	},
	{
		name: "interleaved", regions: [][]int{{0, 2}, {1, 3}},
		history: []uint64{0x40ee778b6bc7a905, 0x40ed446eb210b1b2, 0x40ec8f9baf602835, 0x40ec8f9baf602835},
		routing: 0x6bf9b53832533104, sweeps: 4, converged: true,
	},
	{
		name: "interleaved-lppm", regions: [][]int{{0, 2}, {1, 3}}, private: true,
		history: []uint64{0x40efebdf61911938, 0x40ef4642767c6bb9, 0x40ef10d62192883d, 0x40eea24a48aab827, 0x40eebebe21338d2d, 0x40eebf644c72e971, 0x40eee14e2f3025a6, 0x40ef0d09b5b683b2, 0x40ee93d4e4562a8f, 0x40ef7eaeb53b8111},
		routing: 0xc9b21741e5862e38, sweeps: 10, converged: false,
	},
	{
		name: "singletons", regions: [][]int{{0}, {1}, {2}, {3}},
		history: []uint64{0x40efed6c5859a9b1, 0x40ee5bd54fda43b0, 0x40ed77dac7f1ed08, 0x40ecc21e1e765d65, 0x40ec8d172c0c8ab5, 0x40ec8d172c0c8ab5},
		routing: 0x420ab903cc954318, sweeps: 6, converged: true,
	},
	{
		name: "singletons-lppm", regions: [][]int{{0}, {1}, {2}, {3}}, private: true,
		history: []uint64{0x40f07d05f03fa17b, 0x40f02ad9b3d7e5b1, 0x40f0292947daa200, 0x40ef887b790fa543, 0x40ef9355d4c789b3, 0x40f003a8ce522c95, 0x40efc10b2f33327f, 0x40f0020d88bfd7e7, 0x40ef736d41c0c7ca, 0x40ef3a15e81b011c},
		routing: 0x8646ff9d85053e12, sweeps: 10, converged: false,
	},
	{
		name: "permuted", regions: [][]int{{3, 1}, {2, 0}},
		history: []uint64{0x40ee2b3505186412, 0x40ec9a0989cb3c7c, 0x40ec983a4815f890, 0x40ec983a4815f890},
		routing: 0x66f040d43be786d8, sweeps: 4, converged: true,
	},
	{
		name: "permuted-lppm", regions: [][]int{{3, 1}, {2, 0}}, private: true,
		history: []uint64{0x40efe3bbb4dd3a35, 0x40eefd8e7a312bd5, 0x40ef7dfb1e1ed44b, 0x40eeb579b8e03ab9, 0x40eee0743e2e19b1, 0x40eec0c3dd716ccc, 0x40ee83046a073b18, 0x40ef3551545344cc, 0x40eef2dde402daf3, 0x40eeb3a8e9e9ffd6},
		routing: 0xe6759f0ef8fdf5c4, sweeps: 10, converged: false,
	},
}

// multiBSGoldenRun executes case gc on the fixed golden instance.
func multiBSGoldenRun(t *testing.T, gc multiBSGoldenCase) *RunResult {
	t.Helper()
	inst := randomInstance(rand.New(rand.NewSource(47)), 4, 8, 10)
	cfg := MultiBSConfig{Regions: gc.regions}
	if gc.private {
		cfg.MaxRounds = 10
		cfg.Privacy = &PrivacyConfig{Epsilon: 0.2, Delta: 0.5, Noise: NewNoiseSource(48)}
	}
	res, err := RunMultiBS(inst, cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return res
}

// routingDigest hashes the bit pattern of every routing entry.
func routingDigest(y *model.RoutingPolicy) uint64 {
	h := fnv.New64a()
	for _, v := range y.T.Data {
		hashU64(h, math.Float64bits(v))
	}
	return h.Sum64()
}

// TestMultiBSGolden pins RunMultiBS bit for bit: any change to the
// per-phase summation order, the LPPM draw order, the cross-region repair
// or the stop rule moves at least one pinned value. It also checks that
// every round reports its memo accounting in RunResult.Work.
func TestMultiBSGolden(t *testing.T) {
	if len(multiBSGoldenCases) == 0 {
		t.Fatal("no golden cases")
	}
	skipped := 0
	for _, gc := range multiBSGoldenCases {
		res := multiBSGoldenRun(t, gc)
		if res.Sweeps != gc.sweeps || res.Converged != gc.converged {
			t.Errorf("%s: sweeps/converged = %d/%v, want %d/%v", gc.name, res.Sweeps, res.Converged, gc.sweeps, gc.converged)
		}
		if len(res.History) != len(gc.history) {
			t.Errorf("%s: history length %d, want %d", gc.name, len(res.History), len(gc.history))
			continue
		}
		for i, v := range res.History {
			if math.Float64bits(v) != gc.history[i] {
				t.Errorf("%s: history[%d] = %v (bits %#x), want bits %#x", gc.name, i, v, math.Float64bits(v), gc.history[i])
			}
		}
		if got := routingDigest(res.Solution.Routing); got != gc.routing {
			t.Errorf("%s: routing digest %#x, want %#x", gc.name, got, gc.routing)
		}
		// The regional engine answers through the same per-SBS memo as
		// the single-BS engines, so its rounds carry the same accounting.
		if len(res.Work) != res.Sweeps {
			t.Errorf("%s: %d work records for %d rounds", gc.name, len(res.Work), res.Sweeps)
		}
		for i, w := range res.Work {
			if w.Solves+w.Skipped != 4 {
				t.Errorf("%s: round %d: %d solves + %d skips do not partition N=4", gc.name, i, w.Solves, w.Skipped)
			}
		}
		skipped += res.TotalWork().Skipped
	}
	// Six of the eight runs revisit a capacity vector; the two permuted
	// layouts never do.
	if skipped == 0 {
		t.Error("no memo hit in any multi-BS run")
	}
}
