package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/model"
)

// jacobiGoldenCase is one pinned multi-round Jacobi run with the memo on:
// an instance seed, LPPM on or off, and the exact bits the run must
// reproduce.
type jacobiGoldenCase struct {
	name    string
	seed    int64
	private bool
	// want pins the trajectory bit for bit.
	history   []uint64 // math.Float64bits of RunResult.History
	routing   uint64   // routingDigest of the returned routing
	sweeps    int
	converged bool
}

// jacobiGoldenCases run 12 rounds on 6×9×11 instances that never reach a
// fixed point. Without LPPM, every round after the first has memo hits,
// and some SBS uploads change while others keep their bits, so some rows
// are linked only to unchanged blocks: the rounds a merge restricted to
// the changed rows would handle differently. With LPPM every upload moves
// each round, and the case pins the noise draws through the merge.
var jacobiGoldenCases = []jacobiGoldenCase{
	{
		name: "seed6", seed: 6,
		history: []uint64{0x40f0246b7c047bbf, 0x40efd4c90d492e9d, 0x40f0246b7c047bbf, 0x40efd4c90d492e9d, 0x40f0246b7c047bbf, 0x40efd4c90d492e9d, 0x40f0246b7c047bbf, 0x40efd4c90d492e9d, 0x40f0246b7c047bbf, 0x40efd4c90d492e9d, 0x40f0246b7c047bbf, 0x40efd4c90d492e9d},
		routing: 0xf3f1f2069f318b24, sweeps: 12, converged: false,
	},
	{
		name: "seed37", seed: 37,
		history: []uint64{0x40f098cba8f90de2, 0x40f098c40a851f7b, 0x40f098cba8f90de2, 0x40f098c40a851f7b, 0x40f098cba8f90de2, 0x40f098c40a851f7b, 0x40f098cba8f90de2, 0x40f098c40a851f7b, 0x40f098cba8f90de2, 0x40f098c40a851f7b, 0x40f098cba8f90de2, 0x40f098c40a851f7b},
		routing: 0xadc86fa04818a4cb, sweeps: 12, converged: false,
	},
	{
		name: "seed6-lppm", seed: 6, private: true,
		history: []uint64{0x40f109bcb7409ca9, 0x40f0eb7a6003b121, 0x40f08e739541566d, 0x40f0c17532a4d464, 0x40f09c6d1ecd74bc, 0x40f09634dbdc6681, 0x40f08f0ce9073c05, 0x40f0d53403988758, 0x40f0b875fa0795a9, 0x40f103214f7e01bc, 0x40f0dadf53b59b7a, 0x40f09389e5370f16},
		routing: 0xedd1e94c015eca5d, sweeps: 12, converged: false,
	},
}

// jacobiGoldenInstance is case gc's instance.
func jacobiGoldenInstance(gc jacobiGoldenCase) *model.Instance {
	return randomInstance(rand.New(rand.NewSource(gc.seed)), 6, 9, 11)
}

// jacobiGoldenCfg is case gc's configuration on top of base: the memo on,
// a stop rule that only a bitwise fixed point meets, 12 rounds, and a
// fresh noise stream when private.
func jacobiGoldenCfg(gc jacobiGoldenCase, base Config) Config {
	cfg := base
	cfg.Gamma = 1e-300
	cfg.MaxSweeps = 12
	if gc.private {
		cfg.Privacy = &PrivacyConfig{Epsilon: 1.0, Delta: 0.4, Noise: NewNoiseSource(gc.seed + 500)}
	}
	return cfg
}

// TestJacobiGolden pins multi-round Jacobi trajectories bit for bit, with
// the memo on: the reference engine and the 2-worker pool must both
// reproduce the same pinned values. The engines share the round's merge,
// so the cross-engine and memo on/off tests cannot see a merge change
// both sides make; these values can.
func TestJacobiGolden(t *testing.T) {
	for _, gc := range jacobiGoldenCases {
		inst := jacobiGoldenInstance(gc)
		for _, eng := range []struct {
			name string
			cfg  Config
		}{{"reference", jacobiCfg()}, {"parallel workers=2", parallelCfg(2)}} {
			label := fmt.Sprintf("%s %s", gc.name, eng.name)
			res := runCfg(t, inst, jacobiGoldenCfg(gc, eng.cfg))
			if res.Sweeps != gc.sweeps || res.Converged != gc.converged {
				t.Errorf("%s: sweeps/converged = %d/%v, want %d/%v", label, res.Sweeps, res.Converged, gc.sweeps, gc.converged)
			}
			if res.TotalWork().Skipped == 0 {
				t.Errorf("%s: no memo hit in %d rounds (work %v); the case no longer exercises the memo", label, res.Sweeps, res.Work)
			}
			if len(res.History) != len(gc.history) {
				t.Errorf("%s: history length %d, want %d", label, len(res.History), len(gc.history))
				continue
			}
			for i, v := range res.History {
				if math.Float64bits(v) != gc.history[i] {
					t.Errorf("%s: history[%d] = %v (bits %#x), want bits %#x", label, i, v, math.Float64bits(v), gc.history[i])
				}
			}
			if got := routingDigest(res.Solution.Routing); got != gc.routing {
				t.Errorf("%s: routing digest %#x, want %#x", label, got, gc.routing)
			}
		}
		if !gc.private {
			if rounds := jacobiPartialRounds(t, inst, jacobiGoldenCfg(gc, jacobiCfg())); rounds == 0 {
				t.Errorf("%s: no round changed some uploads and left a row linked only to unchanged ones", gc.name)
			}
		}
	}
}

// jacobiPartialRounds drives cfg's engine round by round for MaxSweeps
// rounds and counts the rounds in which at least one SBS's upload changed
// bits while at least one row is linked only to SBSs whose uploads kept
// theirs.
func jacobiPartialRounds(t *testing.T, inst *model.Instance, cfg Config) int {
	t.Helper()
	c, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := NewSweepState(inst, identityOrder(inst.N))
	partial := 0
	for round := 0; round < cfg.MaxSweeps; round++ {
		before := st.Y.Clone()
		if err := c.engine.Sweep(st, round); err != nil {
			t.Fatal(err)
		}
		changed := make([]bool, inst.N)
		anyChanged := false
		for n := range changed {
			for i, v := range st.Y.SBS(n).Data {
				if math.Float64bits(v) != math.Float64bits(before.SBS(n).Data[i]) {
					changed[n], anyChanged = true, true
					break
				}
			}
		}
		for u := 0; u < inst.U && anyChanged; u++ {
			unchanged := true
			for n := range changed {
				if changed[n] && inst.Links[n][u] {
					unchanged = false
				}
			}
			if unchanged {
				partial++
				break
			}
		}
	}
	return partial
}
