package dp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSampleLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	const scale = 2.0
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		v := SampleLaplace(rng, scale)
		sum += v
		sumAbs += math.Abs(v)
	}
	mean := sum / n
	meanAbs := sumAbs / n
	if math.Abs(mean) > 0.05 {
		t.Errorf("empirical mean = %v, want ≈0", mean)
	}
	// E|X| = scale for Laplace.
	if math.Abs(meanAbs-scale) > 0.05 {
		t.Errorf("empirical E|X| = %v, want %v", meanAbs, scale)
	}
}

func TestSampleLaplacePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive scale")
		}
	}()
	SampleLaplace(rand.New(rand.NewSource(1)), 0)
}

func TestBetaForEpsilon(t *testing.T) {
	beta, err := BetaForEpsilon(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if beta != 4 {
		t.Errorf("beta = %v, want 4", beta)
	}
	if _, err := BetaForEpsilon(0, 1); err == nil {
		t.Error("zero sensitivity: want error")
	}
	if _, err := BetaForEpsilon(1, 0); err == nil {
		t.Error("zero epsilon: want error")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := BetaForEpsilon(1, eps); err == nil {
			t.Errorf("epsilon=%v: want error", eps)
		}
	}
}

func TestBoundedLaplaceConstruction(t *testing.T) {
	if _, err := NewBoundedLaplace(0, 0, 1); err == nil {
		t.Error("beta=0: want error")
	}
	if _, err := NewBoundedLaplace(1, 2, 1); err == nil {
		t.Error("lo>hi: want error")
	}
	if _, err := NewBoundedLaplace(math.NaN(), 0, 1); err == nil {
		t.Error("NaN beta: want error")
	}
	if _, err := NewBoundedLaplace(1, math.NaN(), 1); err == nil {
		t.Error("NaN lo: want error")
	}
}

func TestBoundedLaplaceSampleInRange(t *testing.T) {
	cases := []struct{ beta, lo, hi float64 }{
		{1, 0, 0.5},
		{0.1, 0, 0.01},
		{10, -3, 2},
		{2, -5, -1},
		{1, 1, 4},
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		bl, err := NewBoundedLaplace(c.beta, c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			v := bl.Sample(rng)
			if v < c.lo || v > c.hi {
				t.Fatalf("sample %v outside [%v,%v] (beta=%v)", v, c.lo, c.hi, c.beta)
			}
		}
	}
}

func TestBoundedLaplaceDegenerate(t *testing.T) {
	bl, err := NewBoundedLaplace(1, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if got := bl.Sample(rng); got != 0.3 {
		t.Errorf("degenerate sample = %v, want 0.3", got)
	}
	if got := bl.Mean(); got != 0.3 {
		t.Errorf("degenerate mean = %v, want 0.3", got)
	}
}

func TestBoundedLaplaceMeanMatchesMonteCarlo(t *testing.T) {
	cases := []struct{ beta, lo, hi float64 }{
		{1, 0, 0.5},
		{0.5, -2, 3},
		{3, -4, -1},
		{0.2, 0, 1},
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range cases {
		bl, err := NewBoundedLaplace(c.beta, c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += bl.Sample(rng)
		}
		mc := sum / n
		if math.Abs(mc-bl.Mean()) > 0.02*(1+math.Abs(bl.Mean())) {
			t.Errorf("interval [%v,%v] beta=%v: Monte Carlo mean %v vs analytic %v",
				c.lo, c.hi, c.beta, mc, bl.Mean())
		}
	}
}

// TestBoundedLaplaceNormalizingConstant: eq. 28 renormalizes by α(β), the
// mass the untruncated Laplace places on the support, so the density at 0
// is 1/(2β·α(β)).
func TestBoundedLaplaceNormalizingConstant(t *testing.T) {
	// For [0, hi]: α = (1 − e^(−hi/β))/2.
	bl, err := NewBoundedLaplace(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	alpha := (1 - math.Exp(-0.5)) / 2
	if got, want := bl.Density(0), 1/(2*2*alpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("density at 0 = %v, want 1/(2βα) = %v", got, want)
	}
	// Full line would integrate to 1: on a huge interval α ≈ 1 and the
	// density at 0 approaches the untruncated 1/(2β).
	bl, err = NewBoundedLaplace(1, -100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := bl.Density(0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("density at 0 over wide interval = %v, want ≈1/2", got)
	}
}

func TestBoundedLaplaceDensityIntegratesToOne(t *testing.T) {
	bl, err := NewBoundedLaplace(0.7, -1, 2)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 200000
	width := 3.0 / steps
	var integral float64
	for i := 0; i < steps; i++ {
		r := -1 + (float64(i)+0.5)*width
		integral += bl.Density(r) * width
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Errorf("density integral = %v, want 1", integral)
	}
	if bl.Density(-1.5) != 0 || bl.Density(2.5) != 0 {
		t.Error("density outside support must be 0")
	}
}

func TestBoundedLaplaceAccessors(t *testing.T) {
	bl, err := NewBoundedLaplace(0.5, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Beta() != 0.5 {
		t.Errorf("Beta() = %v, want 0.5", bl.Beta())
	}
}

// Property: samples always stay in the configured interval.
func TestBoundedLaplaceRangeProperty(t *testing.T) {
	prop := func(betaRaw, loRaw, width uint16, seed int64) bool {
		beta := 0.01 + float64(betaRaw)/1000
		lo := float64(loRaw)/100 - 300
		hi := lo + float64(width)/100
		bl, err := NewBoundedLaplace(beta, lo, hi)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := bl.Sample(rng)
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLPPMNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		r, err := LPPMNoise(rng, 0.8, 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0 || r > 0.4 {
			t.Fatalf("noise %v outside [0, δ·y] = [0, 0.4]", r)
		}
	}
	if r, err := LPPMNoise(rng, 0, 0.5, 1); err != nil || r != 0 {
		t.Errorf("zero y: noise = %v err = %v, want 0, nil", r, err)
	}
	if r, err := LPPMNoise(rng, 0.5, 0, 1); err != nil || r != 0 {
		t.Errorf("zero delta: noise = %v err = %v, want 0, nil", r, err)
	}
	if _, err := LPPMNoise(rng, 0.5, 1.0, 1); err == nil {
		t.Error("delta=1: want error")
	}
	if _, err := LPPMNoise(rng, -0.1, 0.5, 1); err == nil {
		t.Error("negative y: want error")
	}
	if _, err := LPPMNoise(rng, 0.5, 0.5, 0); err == nil {
		t.Error("zero beta: want error")
	}
}

// TestLaplaceMechanismDPRatio estimates the ε-DP inequality (the paper's
// eq. 26) by Monte Carlo: for the additive Laplace mechanism on two
// neighboring values differing by the sensitivity, the probability of any
// output interval differs by at most e^ε (up to sampling error).
func TestLaplaceMechanismDPRatio(t *testing.T) {
	const (
		eps   = 0.5
		delta = 1.0 // sensitivity
		n     = 300000
	)
	m := LaplaceMechanism{Sensitivity: delta, Epsilon: eps}
	rng := rand.New(rand.NewSource(5))
	histA := make(map[int]float64)
	histB := make(map[int]float64)
	bucket := func(v float64) int { return int(math.Floor(v)) }
	for i := 0; i < n; i++ {
		a, err := m.Release(rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Release(rng, delta)
		if err != nil {
			t.Fatal(err)
		}
		histA[bucket(a)]++
		histB[bucket(b)]++
	}
	bound := math.Exp(eps)
	for k, ca := range histA {
		cb := histB[k]
		if ca < 3000 || cb < 3000 {
			continue // skip tails with too few samples for a stable ratio
		}
		ratio := ca / cb
		if ratio > bound*1.1 || ratio < 1/(bound*1.1) {
			t.Errorf("bucket %d: probability ratio %v outside e^±ε = %v", k, ratio, bound)
		}
	}
}

func TestTruncatedHalfNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range []struct{ sigma, hi float64 }{
		{1, 0.5}, {0.1, 0.5}, {10, 0.01}, {0.5, 3},
	} {
		for i := 0; i < 3000; i++ {
			v, err := TruncatedHalfNormal(rng, c.sigma, c.hi)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0 || v > c.hi {
				t.Fatalf("sample %v outside [0,%v] (sigma=%v)", v, c.hi, c.sigma)
			}
		}
	}
	// hi = 0 is a point mass at 0.
	if v, err := TruncatedHalfNormal(rng, 1, 0); err != nil || v != 0 {
		t.Errorf("hi=0: v=%v err=%v", v, err)
	}
	if _, err := TruncatedHalfNormal(rng, 0, 1); err == nil {
		t.Error("sigma=0: want error")
	}
	if _, err := TruncatedHalfNormal(rng, 1, -1); err == nil {
		t.Error("negative hi: want error")
	}
	// With hi ≫ σ the truncation is inactive: the mean must approach the
	// half-normal mean σ·√(2/π).
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v, err := TruncatedHalfNormal(rng, 1, 50)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	want := math.Sqrt(2 / math.Pi)
	if got := sum / n; math.Abs(got-want) > 0.02 {
		t.Errorf("mean = %v, want ≈%v", got, want)
	}
}

func TestGaussianMechanism(t *testing.T) {
	m := GaussianMechanism{Sensitivity: 1, Epsilon: 0.5, Delta: 1e-5}
	sigma, err := m.Sigma()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2*math.Log(1.25/1e-5)) / 0.5
	if math.Abs(sigma-want) > 1e-12 {
		t.Errorf("sigma = %v, want %v", sigma, want)
	}
	rng := rand.New(rand.NewSource(9))
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v, err := m.Release(rng, 10)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-10) > 0.1 {
		t.Errorf("mean release = %v, want ≈10", mean)
	}

	bad := []GaussianMechanism{
		{Sensitivity: 0, Epsilon: 0.5, Delta: 1e-5},
		{Sensitivity: 1, Epsilon: 0, Delta: 1e-5},
		{Sensitivity: 1, Epsilon: 2, Delta: 1e-5},
		{Sensitivity: 1, Epsilon: 0.5, Delta: 0},
		{Sensitivity: 1, Epsilon: 0.5, Delta: 1},
	}
	for i, m := range bad {
		if _, err := m.Sigma(); err == nil {
			t.Errorf("case %d: Sigma accepted invalid mechanism %+v", i, m)
		}
	}
}

func TestExponentialMechanism(t *testing.T) {
	m := ExponentialMechanism{Sensitivity: 1, Epsilon: 4}
	rng := rand.New(rand.NewSource(13))
	utilities := []float64{0, 5, 1}
	counts := make([]int, 3)
	const n = 20000
	for i := 0; i < n; i++ {
		idx, err := m.Select(rng, utilities)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	// Index 1 has utility 5 and should dominate: P(1)/P(0) = e^(4·5/2) ≫ 1.
	if counts[1] < n*9/10 {
		t.Errorf("high-utility index selected %d/%d times, want > 90%%", counts[1], n)
	}
	// Ratios between observed frequencies follow the exponential weights.
	// Use a two-option vector so both options get enough samples:
	// P(1)/P(0) = e^(2·1/2) = e ≈ 2.72.
	m2 := ExponentialMechanism{Sensitivity: 1, Epsilon: 2}
	two := []float64{0, 1}
	counts2 := make([]int, 2)
	for i := 0; i < n; i++ {
		idx, err := m2.Select(rng, two)
		if err != nil {
			t.Fatal(err)
		}
		counts2[idx]++
	}
	ratio := float64(counts2[1]) / float64(counts2[0])
	if ratio < 2.3 || ratio > 3.2 {
		t.Errorf("P(1)/P(0) = %v, want ≈e", ratio)
	}

	if _, err := m.Select(rng, nil); err == nil {
		t.Error("empty utilities: want error")
	}
	if _, err := (ExponentialMechanism{Sensitivity: 0, Epsilon: 1}).Select(rng, utilities); err == nil {
		t.Error("zero sensitivity: want error")
	}
	if _, err := (ExponentialMechanism{Sensitivity: 1, Epsilon: 0}).Select(rng, utilities); err == nil {
		t.Error("zero epsilon: want error")
	}
	if _, err := m.Select(rng, []float64{1, math.NaN()}); err == nil {
		t.Error("NaN utility: want error")
	}
}

func TestAccountant(t *testing.T) {
	var a Accountant
	if err := a.Record("sbs-0", 0.1); err != nil {
		t.Fatal(err)
	}
	if err := a.Record("sbs-0", 0.2); err != nil {
		t.Fatal(err)
	}
	if err := a.Record("sbs-1", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := a.Record("sbs-0", -1); err == nil {
		t.Error("negative epsilon: want error")
	}
	if got := a.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := a.SequentialEpsilon(); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("SequentialEpsilon = %v, want 0.55", got)
	}
	if got := a.ParallelEpsilon(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("ParallelEpsilon = %v, want 0.3", got)
	}
	byLabel := a.ByLabel()
	if math.Abs(byLabel["sbs-0"]-0.3) > 1e-12 || math.Abs(byLabel["sbs-1"]-0.25) > 1e-12 {
		t.Errorf("ByLabel = %v", byLabel)
	}
	if s := a.String(); len(s) == 0 {
		t.Error("String() empty")
	}
	a.Reset()
	if a.Count() != 0 || a.SequentialEpsilon() != 0 {
		t.Error("Reset did not clear spends")
	}
}

func TestAccountantConcurrent(t *testing.T) {
	var a Accountant
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := a.Record("sbs", 0.01); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := a.Count(); got != 800 {
		t.Errorf("Count = %d, want 800", got)
	}
	if got := a.SequentialEpsilon(); math.Abs(got-8) > 1e-9 {
		t.Errorf("SequentialEpsilon = %v, want 8", got)
	}
}
