package core

import (
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

// solveGoldenSeeds is the number of pinned instances; solveGolden holds
// one {solve, run} digest pair per seed 1..solveGoldenSeeds.
const solveGoldenSeeds = 40

// solveGolden pins Subproblem.Solve and Coordinator.Run bit for bit. The
// first digest covers every SBS's Solve against a few random y₋ₙ (Cache,
// Routing bits, Gain bits, DualIters); the second covers a Coordinator
// run's History bits, Sweeps and Converged.
var solveGolden = [solveGoldenSeeds][2]uint64{
	{0xfc897565935b4422, 0xd45d01e1935b0e86},
	{0x78e0d2f3b4ac16bf, 0x28b927391368e0ae},
	{0x9ed3032f3a391321, 0x7a3f1e3a345d7a},
	{0x59b0365ac6dfdf41, 0xd5896cd2cd786ca},
	{0xc9da6db0f816b3ef, 0x31a00be5c24542c6},
	{0xc60cc79e97fe719b, 0x1040076026f324c6},
	{0xca5fedbf6b1fd8b4, 0xa657fba434022136},
	{0x4155861082f27bb, 0xc49525277d9477d2},
	{0xe349259c3994e653, 0x1a1fb3a040a95c76},
	{0x324add47870a8902, 0x70974a8a245a281a},
	{0xdd04277ba6333eca, 0x45bb84b855597e46},
	{0x9f5256306c06b8a5, 0x89714ebec9354d46},
	{0xc5b2254cddd22232, 0xbd65063f556bddaa},
	{0x6f132d84c0bb133c, 0x4bfbf3455ce4a746},
	{0xdad68862d8012bff, 0x5aed3c0255a95106},
	{0x42be2c64b37c5a90, 0x886b06a72849c2fa},
	{0xddf76e45d8498bdb, 0x4eb52f51d7c7f8ae},
	{0xe6424a913760969b, 0xeba23bd575445a5a},
	{0x7c5e208a981a7451, 0x8e4afdd4ce9785ce},
	{0xc38be9e515eda176, 0x77b19ff45c69ffd6},
	{0x70ea642575208bd7, 0x4130d4da4637646},
	{0x593dd3f515ef3671, 0x61cfa07e2fdb7952},
	{0x6534fca6148ae5c8, 0xb15a49d793c9e896},
	{0xb080786482b4edeb, 0xdd0e835a233d6d82},
	{0x5766a2803185daa2, 0x2ced54b7c367aece},
	{0xc329c28149f53397, 0x589bd7c48109326},
	{0xfbba067730f75ac6, 0x4264cc58bfa5a562},
	{0x6fc9c4281574a7dd, 0x2566e7a4aa236446},
	{0xc20c10e92edd16ea, 0x30e158eb6664700e},
	{0x1af54fc866f82e9b, 0x10d22f418db093f6},
	{0x9b5f92ef8b2e384e, 0x3541aa1557d1afc6},
	{0x406a3447a59be44d, 0xb312b8aed1feb656},
	{0x52d284ca0659b0c, 0xa2e48d1f31b38526},
	{0xc8f0bde66afbd60b, 0xdc0a59656f9327de},
	{0xad9960c33e2fe612, 0x265d76c04bbd210e},
	{0xe6b68b396c8019f0, 0x41dcb891b978b7fe},
	{0xba8a2f63a6236d68, 0x4b2a867e6a77c91e},
	{0x7fac40e7ab56d209, 0x9fa79a45eb916316},
	{0xcab26d1dd724f359, 0xcd80393b7b3aa82a},
	{0x6225477f33c7bbf2, 0x97d43d6b83e2f452},
}

// solveGoldenInstance builds seed's instance. Seeds cycle through a
// zero-bandwidth SBS 0, a zero-cache last SBS, both, and neither, so the
// degenerate knapsacks are pinned alongside the ordinary ones.
func solveGoldenInstance(seed int64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(seed%3)
	u := 3 + int(seed%8)
	f := 4 + int(seed%10)
	inst := randomInstance(rng, n, u, f)
	switch seed % 4 {
	case 0:
		inst.Bandwidth[0] = 0
	case 1:
		inst.CacheCap[n-1] = 0
	case 2:
		inst.Bandwidth[0] = 0
		inst.CacheCap[n-1] = 0
	}
	return inst
}

// hashU64 writes v little-endian into h.
func hashU64(h hash.Hash64, v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

// solveGoldenDigests returns seed's {solve, run} digest pair.
func solveGoldenDigests(t *testing.T, seed int64) [2]uint64 {
	t.Helper()
	inst := solveGoldenInstance(seed)
	rng := rand.New(rand.NewSource(1000 + seed))

	hs := fnv.New64a()
	yMinus := inst.NewUFMat()
	for n := 0; n < inst.N; n++ {
		sub, err := NewSubproblem(inst, n, DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 3; draw++ {
			// Some entries exceed 1 so the residual-capacity clamp is
			// exercised on both sides.
			for i := range yMinus.Data {
				yMinus.Data[i] = 0
				if rng.Float64() < 0.4 {
					yMinus.Data[i] = rng.Float64() * 1.1
				}
			}
			res, err := sub.Solve(yMinus)
			if err != nil {
				t.Fatal(err)
			}
			hashResult(hs, res)
		}
	}

	coord, err := NewCoordinator(inst, DefaultConfig())
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

// TestSolveGolden pins the P_n solver bit for bit across the instance
// family the coordinator tests draw from: any change to the routing
// knapsack's fill order, the caching step's tie-breaks, the sub-gradient
// step or primal recovery's candidate scoring moves a digest.
func TestSolveGolden(t *testing.T) {
	for i := range solveGolden {
		seed := int64(i + 1)
		if got := solveGoldenDigests(t, seed); got != solveGolden[i] {
			t.Errorf("seed %d: digests {%#x, %#x}, want {%#x, %#x}",
				seed, got[0], got[1], solveGolden[i][0], solveGolden[i][1])
		}
	}
}
