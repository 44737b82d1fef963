package core

import (
	"math"
	"math/rand"
	"testing"

	"edgecache/internal/dp"
	"edgecache/internal/model"
)

// TestNoiseSourceDrawsMatchPlainSource pins that a rand.Rand over a
// NoiseSource draws exactly what one over rand.NewSource of the same seed
// draws, through every noise family LPPM uses. NoiseSource implements
// only Int63, and Float64 and NormFloat64 consume nothing else, so moving
// a caller from a plain seeded *rand.Rand to PrivacyConfig.Noise keeps
// its noise bit-identical.
func TestNoiseSourceDrawsMatchPlainSource(t *testing.T) {
	const delta, beta, sigma = 0.5, 0.8, 0.3
	for _, seed := range []int64{1, 42, 99, 7919, -5} {
		src := NewNoiseSource(seed)
		counted := rand.New(src)
		plain := rand.New(rand.NewSource(seed))
		// The families interleave on one stream, as the LPPM mechanisms
		// would if a run switched between them.
		for i := 0; i < 3000; i++ {
			y := float64(i%17+1) / 17
			var got, want float64
			var gotErr, wantErr error
			switch i % 3 {
			case 0:
				got, gotErr = dp.LPPMNoise(counted, y, delta, beta)
				want, wantErr = dp.LPPMNoise(plain, y, delta, beta)
			case 1:
				got, gotErr = dp.TruncatedHalfNormal(counted, sigma, delta*y)
				want, wantErr = dp.TruncatedHalfNormal(plain, sigma, delta*y)
			default:
				got = counted.Float64() * delta * y
				want = plain.Float64() * delta * y
			}
			if gotErr != nil || wantErr != nil {
				t.Fatalf("seed %d draw %d: errors %v / %v", seed, i, gotErr, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d (family %d): NoiseSource gave %v, plain source %v", seed, i, i%3, got, want)
			}
		}
		if _, draws := src.Pos(); draws == 0 {
			t.Fatalf("seed %d: NoiseSource counted no draws", seed)
		}
	}

	// End to end through LPPM.Perturb: the mechanism on a NoiseSource
	// perturbs a block exactly as it does with a plain source swapped in.
	block := model.NewMat(4, 6)
	for i := range block.Data {
		block.Data[i] = float64(i%5) / 4
	}
	for _, mech := range []NoiseMechanism{MechanismLaplace, MechanismGaussian, MechanismUniform} {
		cfg := PrivacyConfig{Epsilon: 0.5, Delta: delta, Mechanism: mech, Noise: NewNoiseSource(13)}
		counted, err := NewLPPM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Noise = NewNoiseSource(0)
		plainLPPM, err := NewLPPM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain := plainLPPM.withRng(rand.New(rand.NewSource(13)))
		for round := 0; round < 5; round++ {
			got, err := counted.Perturb("sbs-0", block)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Perturb("sbs-0", block)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%v round %d entry %d: NoiseSource gave %v, plain source %v", mech, round, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
