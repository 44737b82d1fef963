// Package attack implements the honest-but-curious adversary of the
// paper's §IV threat model: an observer of the aggregate routing policies
// the BS broadcasts during Algorithm 1, attempting to recover the private
// per-SBS routing policies.
//
// The attack exploits the protocol's structure. In phase n the BS
// broadcasts B_n = Σ_{i≠n} y_i (eq. 25 with the receiving SBS's own upload
// removed). Once the sweep has converged the uploads are sweep-invariant,
// so the N broadcasts of one sweep satisfy
//
//	B_n = Y − y_n   with   Y = Σ_i y_i = Σ_n B_n / (N−1),
//
// and every individual routing policy is recovered *exactly*:
// y_n = Y − B_n. Without LPPM the broadcast channel therefore leaks each
// operator's full routing policy — which is precisely the leak the paper
// motivates LPPM with. With LPPM the aggregates are built from noised
// uploads, and the reconstruction recovers only the noised values, whose
// distance to the true policies grows as ε shrinks (experiment E15).
//
// The attack is scored against the SBSs' clean, pre-LPPM routing, which
// never leaves an SBS. It is recomputed from the observed broadcasts
// alone: Subproblem.Solve is deterministic in y_{-n}, so re-solving the
// broadcast of phase n reproduces SBS n's clean routing bit for bit
// (SweepObserver.Truth).
package attack

import (
	"fmt"

	"edgecache/internal/core"
	"edgecache/internal/model"
)

// SweepObserver records the broadcasts of Algorithm 1 sweeps, keyed by
// sweep index. Wire its Tap method into core.Config.BroadcastTap.
type SweepObserver struct {
	inst   *model.Instance
	sub    core.SubproblemConfig
	sweeps map[int][]model.Mat // sweep → phase-ordered broadcast copies
}

// NewSweepObserver creates an observer of inst's N SBS phases per sweep.
// sub is the run's core.Config.Sub, which Truth re-solves with.
func NewSweepObserver(inst *model.Instance, sub core.SubproblemConfig) *SweepObserver {
	return &SweepObserver{inst: inst, sub: sub, sweeps: make(map[int][]model.Mat)}
}

// Tap implements the core.Config.BroadcastTap contract: it copies every
// broadcast (the attacker records the channel).
func (o *SweepObserver) Tap(sweep, phase int, yMinus model.Mat) {
	for len(o.sweeps[sweep]) < phase {
		o.sweeps[sweep] = append(o.sweeps[sweep], model.Mat{}) // out-of-order guard
	}
	o.sweeps[sweep] = append(o.sweeps[sweep], yMinus.Clone())
}

// CompleteSweeps returns the sweep indices for which all N phase
// broadcasts were captured, in increasing order.
func (o *SweepObserver) CompleteSweeps() []int {
	var out []int
	for s := 0; ; s++ {
		b, ok := o.sweeps[s]
		if !ok {
			break
		}
		if o.complete(b) {
			out = append(out, s)
		}
	}
	return out
}

// complete reports whether b holds a broadcast for every phase.
func (o *SweepObserver) complete(b []model.Mat) bool {
	if len(b) != o.inst.N {
		return false
	}
	for _, m := range b {
		if m.U == 0 { // an out-of-order guard slot; a broadcast has U ≥ 1 rows
			return false
		}
	}
	return true
}

// captured returns the broadcasts of one fully captured sweep.
func (o *SweepObserver) captured(sweep int) ([]model.Mat, error) {
	broadcasts, ok := o.sweeps[sweep]
	if !ok || !o.complete(broadcasts) {
		return nil, fmt.Errorf("attack: sweep %d not fully captured", sweep)
	}
	return broadcasts, nil
}

// reconstructable returns the broadcasts of one fully captured sweep of at
// least two SBSs: with one SBS its broadcast is all zeros and carries no
// information.
func (o *SweepObserver) reconstructable(sweep int) ([]model.Mat, error) {
	if o.inst.N < 2 {
		return nil, fmt.Errorf("attack: reconstruction needs at least 2 SBSs, got %d", o.inst.N)
	}
	return o.captured(sweep)
}

// Reconstruct recovers the per-SBS routing uploads from the broadcasts of
// one sweep under the converged-sweep assumption: y_n = ΣB/(N−1) − B_n.
// Negative round-off is clamped at zero. It fails if the sweep was not
// fully captured or N < 2.
func (o *SweepObserver) Reconstruct(sweep int) ([][][]float64, error) {
	broadcasts, err := o.reconstructable(sweep)
	if err != nil {
		return nil, err
	}
	// Y = Σ_n B_n / (N−1).
	total := model.NewMat(broadcasts[0].U, broadcasts[0].F)
	for _, b := range broadcasts {
		total.AddFrom(b)
	}
	inv := 1 / float64(len(broadcasts)-1)
	for u := 0; u < total.U; u++ {
		row := total.Row(u)
		for f := range row {
			row[f] *= inv
		}
	}
	out := make([][][]float64, len(broadcasts))
	for n, b := range broadcasts {
		out[n] = clampedDiff(total, b)
	}
	return out, nil
}

// ReconstructFirstSweep recovers uploads from the very first sweep's
// broadcasts, before any convergence: at τ = 0 every not-yet-updated SBS
// still has the all-zero initial policy, so consecutive broadcasts
// telescope as B_{n+1} − B_n = y_n(0). This recovers SBSs 0..N−2 exactly
// (the last SBS's upload never appears in a sweep-0 broadcast) — the leak
// does not wait for the algorithm to converge. Clamps round-off negatives.
func (o *SweepObserver) ReconstructFirstSweep() ([][][]float64, error) {
	broadcasts, err := o.reconstructable(0)
	if err != nil {
		return nil, err
	}
	out := make([][][]float64, len(broadcasts)-1)
	for n := range out {
		out[n] = clampedDiff(broadcasts[n+1], broadcasts[n])
	}
	return out, nil
}

// clampedDiff returns a − b as fresh rows, with round-off negatives
// clamped at zero.
func clampedDiff(a, b model.Mat) [][]float64 {
	out := make([][]float64, a.U)
	for u := range out {
		ar, br := a.Row(u), b.Row(u)
		out[u] = make([]float64, len(ar))
		for f, v := range ar {
			d := v - br[f]
			if d < 0 {
				d = 0
			}
			out[u][f] = d
		}
	}
	return out
}

// Truth recomputes the clean, pre-LPPM routing of every SBS in one sweep:
// the ground truth the attack is measured against. SBS n's routing is a
// fresh core.Subproblem solve of the broadcast it received in that sweep;
// Solve is deterministic in y_{-n}, so the result is bit-equal to the
// routing the run computed. It fails if the sweep was not fully captured.
func (o *SweepObserver) Truth(sweep int) (*model.RoutingPolicy, error) {
	broadcasts, err := o.captured(sweep)
	if err != nil {
		return nil, err
	}
	truth := model.NewRoutingPolicy(o.inst)
	for n, yMinus := range broadcasts {
		sub, err := core.NewSubproblem(o.inst, n, o.sub)
		if err != nil {
			return nil, err
		}
		res, err := sub.Solve(yMinus)
		if err != nil {
			return nil, err
		}
		truth.SetSBS(n, res.Routing)
	}
	return truth, nil
}

// ReconstructionError measures the attack's success against the true
// policies: the mean per-SBS L1 distance between reconstructed and true
// routing, normalized by the true L1 mass (0 = perfect reconstruction,
// i.e. total privacy failure; larger = better protection). Only MU groups
// linked to the SBS are compared — unlinked entries are structurally zero
// on both sides.
func ReconstructionError(inst *model.Instance, truth *model.RoutingPolicy, recovered [][][]float64) (float64, error) {
	if len(recovered) != inst.N {
		return 0, fmt.Errorf("attack: recovered %d SBS policies, want %d", len(recovered), inst.N)
	}
	var dist, mass float64
	for n := 0; n < inst.N; n++ {
		for u := 0; u < inst.U; u++ {
			if !inst.Links[n][u] {
				continue
			}
			for f := 0; f < inst.F; f++ {
				v := truth.At(n, u, f)
				d := v - recovered[n][u][f]
				if d < 0 {
					d = -d
				}
				dist += d
				mass += v
			}
		}
	}
	if mass == 0 {
		if dist == 0 {
			return 0, nil
		}
		return 1, nil
	}
	return dist / mass, nil
}

// RunWithObserver runs Algorithm 1 with a broadcast observer (the
// attacker's view) attached, and returns the run and the observer.
// Restarts are rejected: multiple runs would interleave their sweeps in
// the observer.
func RunWithObserver(inst *model.Instance, cfg core.Config) (*core.RunResult, *SweepObserver, error) {
	if cfg.Restarts != 0 {
		return nil, nil, fmt.Errorf("attack: RunWithObserver does not support restarts")
	}
	obs := NewSweepObserver(inst, cfg.Sub)
	cfg.BroadcastTap = obs.Tap
	coord, err := core.NewCoordinator(inst, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := coord.Run()
	if err != nil {
		return nil, nil, err
	}
	return res, obs, nil
}
