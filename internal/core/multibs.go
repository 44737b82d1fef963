package core

import (
	"fmt"

	"edgecache/internal/model"
)

// MultiBSConfig configures the multi-BS extension. The paper (§II-A)
// analyzes a single BS and claims the analysis "can be easily extended
// for multiple BSs"; this type makes the extension concrete. SBSs are
// partitioned into regions, each coordinated by its own BS. Within a
// region the BS runs the paper's Gauss-Seidel sweep; across regions the
// BSs exchange only their *regional aggregate routing* once per outer
// round (regions belong to different operators, so per-SBS uploads never
// cross a region boundary — strictly less information than the
// single-BS protocol exposes).
//
// Because regions update concurrently against one-round-stale foreign
// aggregates, two regions can claim the same residual demand; after each
// round the BSs reconcile through the core network by scaling overserved
// demands proportionally (the same repair the Jacobi variant uses).
type MultiBSConfig struct {
	// Regions partitions the SBS indices: every SBS appears in exactly
	// one region and regions are non-empty.
	Regions [][]int
	// Sub, Gamma, MaxRounds follow Config's Sub, Gamma and MaxSweeps
	// (0 means Driver's defaults).
	Sub       SubproblemConfig
	Gamma     float64
	MaxRounds int
	// Privacy, when non-nil, applies LPPM to every upload (as in the
	// single-BS algorithm, noise is added before the routing leaves the
	// SBS, so regional aggregates are already privatized).
	Privacy *PrivacyConfig
}

// validateRegions checks that Regions is a partition of 0..N-1.
func (c MultiBSConfig) validateRegions(n int) error {
	if len(c.Regions) == 0 {
		return fmt.Errorf("core: multi-BS config needs at least one region")
	}
	seen := make([]bool, n)
	count := 0
	for r, region := range c.Regions {
		if len(region) == 0 {
			return fmt.Errorf("core: region %d is empty", r)
		}
		for _, idx := range region {
			if idx < 0 || idx >= n {
				return fmt.Errorf("core: region %d contains SBS %d outside [0,%d)", r, idx, n)
			}
			if seen[idx] {
				return fmt.Errorf("core: SBS %d assigned to more than one region", idx)
			}
			seen[idx] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("core: regions cover %d of %d SBSs", count, n)
	}
	return nil
}

// RunMultiBS executes the multi-BS protocol and returns the converged
// result. With a single region containing every SBS it degenerates to
// exactly Algorithm 1 (the repair step never fires because the sequential
// sweep keeps constraint (4) tight), which the tests assert; with one
// region per SBS it performs the reference Jacobi round's update.
func RunMultiBS(inst *model.Instance, cfg MultiBSConfig) (*RunResult, error) {
	c, err := NewCoordinator(inst, Config{
		Sub:       cfg.Sub,
		Gamma:     cfg.Gamma,
		MaxSweeps: cfg.MaxRounds,
		Privacy:   cfg.Privacy,
	})
	if err != nil {
		return nil, err
	}
	if err := cfg.validateRegions(inst.N); err != nil {
		return nil, err
	}
	return c.runEngine(newRegionalEngine(c, cfg.Regions), NewSweepState(inst, identityOrder(inst.N)))
}

// regionalEngine runs one multi-BS round per Sweep call. Each region runs
// a Gauss-Seidel pass over its SBSs, in region order, against the foreign
// aggregates frozen at the round start: a region only knows what the other
// BSs published last round. The round ends as every Jacobi round does —
// Swap, then mergeRows over every row — because concurrent regions may
// have claimed the same residual demand.
type regionalEngine struct {
	c        *Coordinator
	regions  [][]int
	regionOf []int
	// foreign[r] is the round-start aggregate of every SBS outside region r.
	foreign []model.Mat
	yMinus  model.Mat
	// next receives the round's uploads while st.Y still holds the
	// pre-round policy; the two swap at the end of the round.
	next *model.RoutingPolicy
}

func newRegionalEngine(c *Coordinator, regions [][]int) *regionalEngine {
	inst := c.inst
	e := &regionalEngine{
		c:        c,
		regions:  regions,
		regionOf: make([]int, inst.N),
		foreign:  make([]model.Mat, len(regions)),
		yMinus:   inst.NewUFMat(),
		next:     model.NewRoutingPolicy(inst),
	}
	for r, region := range regions {
		e.foreign[r] = inst.NewUFMat()
		for _, n := range region {
			e.regionOf[n] = r
		}
	}
	return e
}

// Kind reports the Jacobi kind: like a Jacobi round, a multi-BS round is
// atomic and ends with the overserve repair.
func (e *regionalEngine) Kind() model.EngineKind { return model.EngineJacobi }
func (e *regionalEngine) Close()                 {}

// Sweep runs one round.
func (e *regionalEngine) Sweep(st *SweepState, sweep int) error {
	inst := e.c.inst
	for r, agg := range e.foreign {
		agg.Zero()
		for n := 0; n < inst.N; n++ {
			if e.regionOf[n] != r {
				addLinked(inst, agg, st.Y.SBS(n), n)
			}
		}
	}
	for r, region := range e.regions {
		for i, n := range region {
			// y_{-n} is the region's own current routing except SBS n —
			// this round's upload for the members already answered, the
			// pre-round block for the rest — plus the foreign aggregate.
			e.yMinus.Zero()
			for j, m := range region {
				switch {
				case j < i:
					addLinked(inst, e.yMinus, e.next.SBS(m), m)
				case j > i:
					addLinked(inst, e.yMinus, st.Y.SBS(m), m)
				}
			}
			e.yMinus.AddFrom(e.foreign[r])
			cache, upload, _, err := e.c.answerPhase(st, sweep, n, e.yMinus)
			if err != nil {
				return err
			}
			st.X.SetRow(n, cache)
			e.next.SetSBS(n, upload)
		}
	}
	// Every SBS belongs to exactly one region, so every block of next was
	// overwritten.
	st.Y.Swap(e.next)
	mergeRows(st.Tracker, inst, st.Y, 0, inst.U)
	return nil
}

// addLinked adds SBS n's routing block into agg on the rows n is linked to.
func addLinked(inst *model.Instance, agg, block model.Mat, n int) {
	for u, linked := range inst.Links[n] {
		if !linked {
			continue
		}
		dst, src := agg.Row(u), block.Row(u)
		for f := range dst {
			dst[f] += src[f]
		}
	}
}
