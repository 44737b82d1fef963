package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgecache/internal/model"
)

// bitEqualHistories compares two cost histories for exact (bit-level)
// equality — the resume guarantee is bit-identity, not tolerance.
func bitEqualHistories(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: history length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: history[%d] = %v, want %v (bit difference)", label, i, got[i], want[i])
		}
	}
}

// bitEqualResults asserts full trajectory equality: history, final cost
// and both final policies, all bit-for-bit.
func bitEqualResults(t *testing.T, got, want *RunResult, label string) {
	t.Helper()
	bitEqualHistories(t, got.History, want.History, label)
	if got.Converged != want.Converged || got.Sweeps != want.Sweeps {
		t.Fatalf("%s: converged/sweeps = %v/%d, want %v/%d", label, got.Converged, got.Sweeps, want.Converged, want.Sweeps)
	}
	if math.Float64bits(got.Solution.Cost.Total) != math.Float64bits(want.Solution.Cost.Total) {
		t.Fatalf("%s: final cost %v, want %v", label, got.Solution.Cost.Total, want.Solution.Cost.Total)
	}
	if got.Solution.Caching.DiffCount(want.Solution.Caching) != 0 {
		t.Fatalf("%s: final caching policy differs", label)
	}
	gd, wd := got.Solution.Routing.T.Data, want.Solution.Routing.T.Data
	for i := range gd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: final routing[%d] = %v, want %v", label, i, gd[i], wd[i])
		}
	}
}

func TestCheckpointConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := randomInstance(rng, 3, 5, 6)

	cfg := DefaultConfig()
	cfg.Checkpoint = &CheckpointConfig{}
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("nil sink: want error")
	}

	cfg.Checkpoint = &CheckpointConfig{Sink: model.NewMemCheckpointStore(0)}
	cfg.Restarts = 2
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("checkpoint with restarts: want error")
	}
	cfg.Restarts = 0

	// A private checkpointed run needs a seekable noise source; a bare Rng
	// (even alongside a Noise source, since Rng wins) has no position.
	cfg.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.5, Rng: rng}
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("checkpoint with bare Rng privacy: want error")
	}
	cfg.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.5, Rng: rng, Noise: NewNoiseSource(7)}
	if _, err := NewCoordinator(inst, cfg); err == nil {
		t.Error("checkpoint with Rng and Noise both set: want error")
	}
	cfg.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.5, Noise: NewNoiseSource(7)}
	if _, err := NewCoordinator(inst, cfg); err != nil {
		t.Errorf("checkpoint with Noise alone rejected: %v", err)
	}
}

func TestCheckpointCaptureIsNonIntrusive(t *testing.T) {
	// Turning checkpointing on must not perturb the trajectory by a single
	// bit: snapshots are pure reads of the sweep state.
	rng := rand.New(rand.NewSource(11))
	inst := randomInstance(rng, 4, 6, 8)

	plain, err := NewCoordinator(inst, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	store := model.NewMemCheckpointStore(0)
	cfg := DefaultConfig()
	cfg.Checkpoint = &CheckpointConfig{Sink: store, EachPhase: true}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	bitEqualResults(t, got, want, "checkpointed run")
	if store.Len() == 0 {
		t.Fatal("no snapshots captured")
	}
}

func TestResumeEveryBoundaryBitIdentical(t *testing.T) {
	// The headline guarantee: crash at ANY capture point (every sweep
	// boundary and every mid-sweep phase), resume in a fresh process, and
	// the trajectory — history, final cost, final policies — is
	// bit-identical to the uninterrupted run.
	rng := rand.New(rand.NewSource(21))
	inst := randomInstance(rng, 4, 6, 8)

	store := model.NewMemCheckpointStore(0)
	cfg := DefaultConfig()
	cfg.Checkpoint = &CheckpointConfig{Sink: store, EachPhase: true}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	snaps := store.All()
	if len(snaps) < 4 {
		t.Fatalf("only %d snapshots captured", len(snaps))
	}
	for _, ck := range snaps {
		// A fresh coordinator models the post-crash process; it does not
		// checkpoint again (recovery needs no recursive snapshots).
		fresh, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Resume(ck)
		if err != nil {
			t.Fatalf("resume at sweep %d phase %d: %v", ck.Sweep, ck.Phase, err)
		}
		bitEqualResults(t, got, want, "resume at sweep "+string(rune('0'+ck.Sweep))+" phase "+string(rune('0'+ck.Phase)))
	}
}

func TestResumePrivateRunBitIdentical(t *testing.T) {
	// With LPPM the trajectory depends on the noise stream; the checkpoint
	// records (seed, draws) and Resume seeks a same-seed source to that
	// position, so even the noisy trajectory replays bit-identically.
	rng := rand.New(rand.NewSource(31))
	inst := randomInstance(rng, 3, 5, 7)
	const seed = 99

	privateCfg := func(noise *NoiseSource) Config {
		cfg := DefaultConfig()
		cfg.MaxSweeps = 8
		cfg.Privacy = &PrivacyConfig{Epsilon: 1.0, Delta: 0.4, Noise: noise}
		return cfg
	}

	store := model.NewMemCheckpointStore(0)
	cfg := privateCfg(NewNoiseSource(seed))
	cfg.Checkpoint = &CheckpointConfig{Sink: store, EachPhase: true}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range store.All() {
		if !ck.HasNoise || ck.NoiseSeed != seed {
			t.Fatalf("snapshot at %d/%d lost the noise position: %+v", ck.Sweep, ck.Phase, ck)
		}
		// Fresh same-seed source at position zero: Resume must seek it.
		fresh, err := NewCoordinator(inst, privateCfg(NewNoiseSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Resume(ck)
		if err != nil {
			t.Fatalf("resume at sweep %d phase %d: %v", ck.Sweep, ck.Phase, err)
		}
		bitEqualResults(t, got, want, "private resume")
	}
}

func TestResumeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inst := randomInstance(rng, 3, 5, 6)

	store := model.NewMemCheckpointStore(0)
	cfg := DefaultConfig()
	cfg.Checkpoint = &CheckpointConfig{Sink: store}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	ck, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}

	plain, _ := NewCoordinator(inst, DefaultConfig())
	if _, err := plain.Resume(nil); err == nil {
		t.Error("nil checkpoint: want error")
	}

	other := randomInstance(rng, 3, 5, 6)
	mismatched, _ := NewCoordinator(other, DefaultConfig())
	if _, err := mismatched.Resume(ck); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign instance: got %v", err)
	}

	restarts := DefaultConfig()
	restarts.Restarts = 1
	shuffled, _ := NewCoordinator(inst, restarts)
	if _, err := shuffled.Resume(ck); err == nil {
		t.Error("restarts > 0: want error")
	}

	private := DefaultConfig()
	private.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.4, Noise: NewNoiseSource(1)}
	lppmCoord, _ := NewCoordinator(inst, private)
	if _, err := lppmCoord.Resume(ck); err == nil || !strings.Contains(err.Error(), "LPPM") {
		t.Errorf("noise-free snapshot into private coordinator: got %v", err)
	}

	noisy := ck
	noisy.HasNoise = true
	noisy.NoiseSeed = 5
	wrongSeed := DefaultConfig()
	wrongSeed.Privacy = &PrivacyConfig{Epsilon: 1, Delta: 0.4, Noise: NewNoiseSource(6)}
	wrongSeedCoord, _ := NewCoordinator(inst, wrongSeed)
	if _, err := wrongSeedCoord.Resume(noisy); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("wrong noise seed: got %v", err)
	}
}

func TestNoiseSourcePositionAndSeek(t *testing.T) {
	a := NewNoiseSource(77)
	ra := rand.New(a)
	var reference []float64
	for i := 0; i < 50; i++ {
		reference = append(reference, ra.Float64())
	}
	_, draws := a.Pos()
	if draws == 0 {
		t.Fatal("draws not counted")
	}

	// Seeking a fresh same-seed source to an intermediate position must
	// continue the stream exactly; rand.New must be re-wrapped after a
	// seek, since *rand.Rand buffers internal state.
	for _, k := range []int{0, 1, 17, 49} {
		b := NewNoiseSource(77)
		rb := rand.New(b)
		for i := 0; i < k; i++ {
			rb.Float64()
		}
		_, pos := b.Pos()
		c := NewNoiseSource(77)
		c.SeekTo(pos)
		rc := rand.New(c)
		for i := k; i < 50; i++ {
			got := rc.Float64()
			if math.Float64bits(got) != math.Float64bits(reference[i]) {
				t.Fatalf("after seek to draw %d: value %d = %v, want %v", pos, i, got, reference[i])
			}
		}
	}

	// SeekTo backwards rewinds through a re-seed.
	d := NewNoiseSource(77)
	rand.New(d).Float64()
	_, far := d.Pos()
	d.SeekTo(0)
	if _, now := d.Pos(); now != 0 {
		t.Fatalf("rewind left position %d", now)
	}
	if far == 0 {
		t.Fatal("no draws recorded before rewind")
	}
}

func TestResumeIgnoresCheckpointMu(t *testing.T) {
	// Snapshots no longer carry the raw dual multipliers μ: they are
	// private, and Solve cold-starts them, so they never shaped the
	// trajectory. Older snapshots that do carry μ must still decode, and
	// resuming from one must replay the uninterrupted run bit for bit.
	rng := rand.New(rand.NewSource(51))
	inst := randomInstance(rng, 3, 5, 7)

	store := model.NewMemCheckpointStore(0)
	cfg := DefaultConfig()
	cfg.Checkpoint = &CheckpointConfig{Sink: store, EachPhase: true}
	coord, err := NewCoordinator(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Realistic μ: each SBS's multipliers after one solve.
	mu := make([][]float64, inst.N)
	for n := range mu {
		sub, err := NewSubproblem(inst, n, DefaultSubproblemConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sub.Solve(inst.NewUFMat()); err != nil {
			t.Fatal(err)
		}
		mu[n] = sub.Multipliers()
	}

	snaps := store.All()
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	for _, ck := range snaps {
		if ck.Mu != nil {
			t.Fatalf("snapshot at sweep %d phase %d carries raw multipliers", ck.Sweep, ck.Phase)
		}
		ck.Mu = mu
		data, err := ck.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		withMu, err := model.UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(withMu.Mu) != inst.N {
			t.Fatalf("decoded %d multiplier vectors, want %d", len(withMu.Mu), inst.N)
		}
		fresh, err := NewCoordinator(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Resume(withMu)
		if err != nil {
			t.Fatalf("resume at sweep %d phase %d: %v", ck.Sweep, ck.Phase, err)
		}
		bitEqualResults(t, got, want, "resume from a snapshot carrying μ")
	}
}
