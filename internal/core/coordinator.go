package core

import (
	"fmt"
	"math"
	"math/rand"

	"edgecache/internal/dp"
	"edgecache/internal/model"
)

// NoiseMechanism selects the noise family used to perturb routing uploads.
type NoiseMechanism int

// Supported mechanisms.
const (
	// MechanismLaplace is the paper's LPPM: bounded Laplace noise on
	// [0, δ·y] with scale β = Δf/ε (ε-DP, Theorem 4). The default.
	MechanismLaplace NoiseMechanism = iota
	// MechanismGaussian subtracts a |N(0,σ)| draw truncated to [0, δ·y]
	// with the analytic (ε, δ_DP) calibration — the Gaussian variant the
	// paper's §VII lists as future work.
	MechanismGaussian
	// MechanismUniform subtracts plain uniform noise on [0, δ·y]. It has
	// no calibrated DP guarantee; it is the "directly added random noise"
	// strawman the paper's §IV argues against, kept for the noise-family
	// ablation.
	MechanismUniform
)

// String names the mechanism.
func (m NoiseMechanism) String() string {
	switch m {
	case MechanismLaplace:
		return "laplace"
	case MechanismGaussian:
		return "gaussian"
	case MechanismUniform:
		return "uniform"
	default:
		return fmt.Sprintf("NoiseMechanism(%d)", int(m))
	}
}

// PrivacyConfig enables LPPM (§IV of the paper) on every routing upload.
type PrivacyConfig struct {
	// Epsilon is the per-release privacy budget ε; Theorem 4 calibrates the
	// Laplace scale as β = Δf/ε with Δf = 1 (lppmSensitivity).
	Epsilon float64
	// Delta is the paper's Laplace component factor δ ∈ [0,1): the noise
	// drawn for routing value y lives on [0, δ·y] (eq. 28). It is NOT the
	// (ε,δ)-DP slack.
	Delta float64
	// Noise drives the noise draws (required). It is a draw-counting,
	// seekable source, so the noise stream's position can be captured in a
	// checkpoint and restored on resume.
	Noise *NoiseSource
	// Accountant optionally records every ε spend, labeled per SBS.
	Accountant *dp.Accountant
	// Mechanism selects the noise family; the zero value is the paper's
	// bounded Laplace (LPPM).
	Mechanism NoiseMechanism
}

const (
	// lppmSensitivity is Δf in eq. 30. The routing values are fractions in
	// [0,1], so 1 is the worst-case L1 change from one SBS altering one
	// routing entry.
	lppmSensitivity = 1
	// gaussianDPDelta is the (ε, δ)-DP slack of MechanismGaussian, distinct
	// from PrivacyConfig.Delta, the noise-interval factor.
	gaussianDPDelta = 1e-5
)

func (p *PrivacyConfig) validate() error {
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 1) {
		return fmt.Errorf("core: privacy epsilon must be positive and finite, got %v", p.Epsilon)
	}
	if !(p.Delta >= 0 && p.Delta < 1) {
		return fmt.Errorf("core: privacy delta must be in [0,1), got %v", p.Delta)
	}
	if p.Noise == nil {
		return fmt.Errorf("core: privacy config requires a Noise source")
	}
	switch p.Mechanism {
	case MechanismLaplace, MechanismUniform, MechanismGaussian:
	default:
		return fmt.Errorf("core: unknown noise mechanism %v", p.Mechanism)
	}
	return nil
}

// Config tunes Algorithm 1.
type Config struct {
	// Sub is the per-SBS sub-problem configuration.
	Sub SubproblemConfig
	// Gamma is the relative-improvement convergence threshold γ; the sweep
	// stops when |f(τ) − f(τ−1)|/f(τ) ≤ γ. MaxSweeps is T, the sweep
	// budget. 0 means Driver's defaults.
	Gamma     float64
	MaxSweeps int
	// Engine selects the sweep discipline: the zero value is the paper's
	// sequential Gauss-Seidel sweep (Algorithm 1); EngineJacobi is the
	// sequential reference of the parallel-update variant (§VII);
	// EngineParallelJacobi computes the same trajectory on a worker pool.
	Engine EngineKind
	// Workers sizes the parallel engine's pool, and the fan-out that
	// builds the per-SBS solvers in NewCoordinator; 0 means GOMAXPROCS.
	// It is an error to set it for the sequential engines, which build
	// their solvers on the calling goroutine.
	Workers int
	// DisableIncremental turns off the dirty-set memo, and nothing else:
	// every phase is solved, even when the SBS's last solve read the same
	// residual capacities. The trajectory is bit-identical either way
	// (tests assert it); the flag exists for that assertion and for
	// benchmarking the memo's win.
	DisableIncremental bool
	// Privacy, when non-nil, applies LPPM to every routing upload.
	Privacy *PrivacyConfig

	// BroadcastTap, when non-nil, observes every aggregate y_{-n} the BS
	// broadcasts (sweep, phase n, matrix), modeling the paper's §IV
	// attacker who listens on the broadcast channel. The matrix is a
	// read-only view valid only for the call; a tap that keeps it must
	// copy it. Only the Gauss-Seidel engine drives it, once per phase
	// whether or not the memo answers the phase. Used by internal/attack
	// and experiment E15.
	BroadcastTap func(sweep, phase int, yMinus model.Mat)

	// Checkpoint, when non-nil, snapshots the full sweep state to the
	// configured sink so a crashed run can be resumed bit-identically (see
	// Coordinator.Resume). Incompatible with Restarts > 0 (a snapshot
	// records one trajectory); a private run's snapshot records the
	// Privacy.Noise position.
	Checkpoint *CheckpointConfig

	// Restarts is an extension beyond the paper: because the no-overserve
	// constraint (4) couples the SBS blocks, the Gauss-Seidel sweep can
	// settle in an order-dependent equilibrium (see DESIGN.md and
	// experiment E7). When Restarts > 0 the coordinator reruns the
	// algorithm that many extra times with randomly shuffled SBS update
	// orders and keeps the cheapest result. The first attempt always uses
	// the paper's fixed 1..N order, so the result is never worse than
	// plain Algorithm 1. Requires RestartSeed-driven determinism.
	Restarts int
	// RestartSeed seeds the order shuffling for Restarts > 0.
	RestartSeed int64
}

// CheckpointConfig selects where snapshots go. A snapshot is taken at
// every sweep boundary, the only point a run resumes at.
type CheckpointConfig struct {
	// Sink receives every snapshot. Required.
	Sink model.CheckpointSink
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig() Config {
	return Config{Sub: DefaultSubproblemConfig()}
}

// RunResult is the outcome of a full Algorithm 1 run.
type RunResult struct {
	// Solution is the final caching and routing policy as seen by the BS
	// (i.e. post-LPPM when privacy is enabled) with its serving cost. It
	// may hold the run's final policies themselves rather than copies (see
	// Driver.Run); it owns them, and nothing the run's engine does later
	// writes them.
	Solution *model.Solution
	// History records the total serving cost after every sweep; History[0]
	// is the cost after sweep τ=0.
	History []float64
	// Sweeps is the number of sweeps executed; Converged reports whether
	// the γ-criterion stopped the run (as opposed to the sweep budget).
	Sweeps    int
	Converged bool
	// Work records the dirty-set accounting of each sweep this run
	// executed: how many sub-problems were actually solved and how many
	// were served from the memo (see DESIGN.md "Incremental sweeps"). It is
	// nil only for the BS agent, whose SBSs solve out of its sight, and is
	// not serialized in checkpoints — a resumed run starts it afresh.
	Work []SweepWork
	// Faults holds the per-SBS fault accounting of a distributed run
	// (one entry per SBS). It is nil for in-process runs, which have no
	// network to fail.
	Faults []SBSFaultStats
}

// SweepWork is one sweep's dirty-set accounting: Solves sub-problems were
// recomputed, Skipped were answered verbatim from the per-SBS memo because
// nothing they read had changed. Solves+Skipped == N in every sweep.
type SweepWork struct {
	Solves  int
	Skipped int
}

// TotalWork sums the per-sweep accounting.
func (r *RunResult) TotalWork() SweepWork {
	var t SweepWork
	for _, w := range r.Work {
		t.Solves += w.Solves
		t.Skipped += w.Skipped
	}
	return t
}

// SBSFaultStats is re-exported from internal/model, where it is part of
// the BS agent's checkpointed per-SBS record (model.SBSHealthState).
type SBSFaultStats = model.SBSFaultStats

// TotalFaults sums the per-SBS fault stats into one record.
func (r *RunResult) TotalFaults() SBSFaultStats {
	var t SBSFaultStats
	for _, f := range r.Faults {
		t.Misses += f.Misses
		t.Retries += f.Retries
		t.Malformed += f.Malformed
		t.QuarantineSpans += f.QuarantineSpans
		t.SkippedPhases += f.SkippedPhases
		t.FailedProbes += f.FailedProbes
	}
	return t
}

// Coordinator runs Algorithm 1 in-process: it plays both the BS role
// (aggregating and re-broadcasting routing policies) and the SBS role
// (solving P_n). The message-passing deployment in internal/sim produces
// identical results over a real transport; tests assert that equivalence.
type Coordinator struct {
	inst   *model.Instance
	cfg    Config
	subs   []*Subproblem
	lppm   *LPPM       // nil when privacy is off
	engine SweepEngine // the engine cfg.Engine selected
}

// NewCoordinator validates the instance and precomputes the per-SBS
// sub-problem solvers, on as many goroutines as the parallel engine has
// workers (one, inline, for the sequential engines). Callers using
// EngineParallelJacobi should Close the coordinator when done to release
// its worker pool.
func NewCoordinator(inst *model.Instance, cfg Config) (*Coordinator, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Engine.Valid() {
		return nil, fmt.Errorf("core: unknown engine kind %d", cfg.Engine)
	}
	if cfg.Workers != 0 && cfg.Engine != EngineParallelJacobi {
		return nil, fmt.Errorf("core: Workers applies only to the parallel engine, not %v", cfg.Engine)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: Workers must be non-negative, got %d", cfg.Workers)
	}
	if cfg.Engine != EngineGaussSeidel {
		if cfg.Restarts > 0 {
			return nil, fmt.Errorf("core: Restarts explores SBS update orders, which only the Gauss-Seidel engine has")
		}
		if cfg.BroadcastTap != nil {
			return nil, fmt.Errorf("core: the broadcast tap instruments the Gauss-Seidel broadcast protocol; engine %v does not drive it", cfg.Engine)
		}
	}
	if ck := cfg.Checkpoint; ck != nil {
		if ck.Sink == nil {
			return nil, fmt.Errorf("core: checkpoint config requires a sink")
		}
		if cfg.Restarts > 0 {
			return nil, fmt.Errorf("core: checkpointing is incompatible with Restarts > 0: a snapshot records a single trajectory")
		}
	}
	c := &Coordinator{inst: inst, cfg: cfg}
	if cfg.Privacy != nil {
		lppm, err := NewLPPM(*cfg.Privacy)
		if err != nil {
			return nil, err
		}
		c.lppm = lppm
	}
	workers := poolSize(cfg)
	subs, err := buildSubproblems(inst, cfg.Sub, workers) // validated above
	if err != nil {
		return nil, err
	}
	c.subs = subs
	engine, err := c.newEngine(workers)
	if err != nil {
		return nil, err
	}
	c.engine = engine
	return c, nil
}

// Close releases the coordinator's engine resources (the parallel
// engine's worker pool). It is idempotent and safe to skip for the
// sequential engines.
func (c *Coordinator) Close() { c.engine.Close() }

// answerPhase is the in-process answer to phase n (a PhaseFunc): SBS n
// responds to yMinus — from its memo when its last solve read the same
// capacities, with a fresh solve otherwise — and LPPM perturbs the routing
// before it is uploaded. The broadcast tap observes y_{-n}, hit or miss.
// The Gauss-Seidel, reference Jacobi and regional engines answer through
// it; ok is always true.
func (c *Coordinator) answerPhase(st *SweepState, sweep, n int, yMinus model.Mat) ([]bool, model.Mat, bool, error) {
	if c.cfg.BroadcastTap != nil {
		c.cfg.BroadcastTap(sweep, n, yMinus)
	}
	// A hit skips only the solve: everything else in the phase (LPPM
	// draws, the install round-trip) still runs, so the trajectory and the
	// noise stream position stay byte-equal to the unskipped run's.
	res, err := c.subs[n].respond(yMinus, !c.cfg.DisableIncremental)
	if err != nil {
		return nil, model.Mat{}, false, err
	}
	upload := res.Routing
	if c.lppm != nil {
		if upload, err = c.lppm.PerturbSBS(n, res.Routing); err != nil {
			return nil, model.Mat{}, false, err
		}
	}
	return res.Cache, upload, true, nil
}

// Run executes the configured engine from the all-zero initial policy.
// With Config.Restarts > 0 (Gauss-Seidel only) it additionally explores
// shuffled SBS update orders and returns the cheapest run.
func (c *Coordinator) Run() (*RunResult, error) {
	order := identityOrder(c.inst.N)
	best, err := c.runEngine(c.engine, NewSweepState(c.inst, order))
	if err != nil {
		return nil, err
	}
	if c.cfg.Restarts > 0 {
		rng := rand.New(rand.NewSource(c.cfg.RestartSeed))
		for attempt := 0; attempt < c.cfg.Restarts; attempt++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			res, err := c.runEngine(c.engine, NewSweepState(c.inst, order))
			if err != nil {
				return nil, err
			}
			if res.Solution.Cost.Total < best.Solution.Cost.Total {
				best = res
			}
		}
	}
	return best, nil
}

// Resume continues a run from a snapshot. The resumed trajectory — cost
// history, final cost and policies — is bit-identical to the uninterrupted
// run's, because the solver is deterministic, the snapshot carries the
// tracker's exact running sums, and (with privacy) the noise stream is
// repositioned to the recorded draw count. The coordinator must be built
// with the same instance and configuration as the crashed run; the engine
// must be of the same family as the one that took the snapshot (the
// reference and parallel Jacobi engines are interchangeable, Gauss-Seidel
// is not interchangeable with either). Any dual multipliers μ the
// snapshot carries are ignored: Solve cold-starts its dual loop, so they
// never influence the trajectory.
func (c *Coordinator) Resume(ck *model.Checkpoint) (*RunResult, error) {
	if ck == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	if err := ck.Validate(c.inst); err != nil {
		return nil, err
	}
	if c.cfg.Restarts > 0 {
		return nil, fmt.Errorf("core: cannot resume with Restarts > 0: a snapshot records a single trajectory")
	}
	if want, have := ck.Engine.Family(), c.engine.Kind().Family(); want != have {
		return nil, fmt.Errorf("core: checkpoint was taken by engine %v (%v family); configured engine %v (%v family) would diverge from its trajectory",
			ck.Engine, want, c.engine.Kind(), have)
	}
	if ck.HasNoise != (c.lppm != nil) {
		return nil, fmt.Errorf("core: checkpoint privacy state (LPPM=%v) does not match configuration (LPPM=%v)",
			ck.HasNoise, c.lppm != nil)
	}
	if c.lppm != nil {
		noise := c.cfg.Privacy.Noise
		if noise.SeedValue() != ck.NoiseSeed {
			return nil, fmt.Errorf("core: noise seed %d does not match checkpoint seed %d", noise.SeedValue(), ck.NoiseSeed)
		}
		noise.SeekTo(ck.NoiseDraws)
	}
	return c.runEngine(c.engine, SweepStateFromCheckpoint(c.inst, ck))
}

// snapshot captures the current sweep state as the resume point at the
// start of sweep `sweep` and hands it to the sink, recording which engine
// kind produced the trajectory and, for a private run, the noise position.
func (c *Coordinator) snapshot(sink model.CheckpointSink, kind EngineKind, st *SweepState, res *RunResult, sweep int) error {
	ck := st.Checkpoint(c.inst, kind, res.History, sweep)
	if c.lppm != nil {
		ck.HasNoise = true
		ck.NoiseSeed, ck.NoiseDraws = c.cfg.Privacy.Noise.Pos()
	}
	if err := sink.Save(ck); err != nil {
		return fmt.Errorf("core: checkpoint at sweep %d: %w", sweep, err)
	}
	return nil
}
