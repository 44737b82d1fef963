package soak

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"

	"edgecache/internal/chaos"
	"edgecache/internal/cluster"
	"edgecache/internal/model"
)

// Cluster episode shape: small on purpose. Each supervised run spawns
// (1 BS + SBSs) OS processes per cell, and ddmin re-executes the whole
// cluster per probe, so the soak keeps the process count low and the
// sweep budget high enough that mid-run faults have a window to fire in.
const (
	clusterCells     = 2
	clusterCellSBSs  = 2
	clusterMaxSweeps = 8
)

// clusterSpec is the supervised-run tuning for soak episodes: a Gamma far
// below float resolution so runs spend their whole sweep budget (the small
// instances would otherwise hit a fixed point before any fault fires), and
// liveness timeouts generous enough that a loaded -race host cannot
// produce false heartbeat kills.
func clusterSpec(seed int64) model.ClusterSpec {
	spec := model.ClusterSpec{
		Gamma:           1e-12,
		MaxSweeps:       clusterMaxSweeps,
		PhaseTimeoutMS:  8000,
		HeartbeatMS:     20,
		HeartbeatMisses: 250,
	}
	for i := 0; i < clusterCells; i++ {
		spec.Cells = append(spec.Cells, model.ClusterCell{
			Name: fmt.Sprintf("cell-%d", i),
			SBSs: clusterCellSBSs,
			Seed: seed + int64(i),
		})
	}
	return spec
}

// clusterInstance builds a small instance with deliberately tight
// bandwidth so the cell stays coupled across several sweeps — the
// experiments scenario's looser instances converge in two sweeps, before
// any scheduled process fault could trigger.
func clusterInstance(sbss int, seed int64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	const u, f = 5, 6
	inst := &model.Instance{
		N: sbss, U: u, F: f,
		Demand:    make([][]float64, u),
		Links:     make([][]bool, sbss),
		CacheCap:  make([]int, sbss),
		Bandwidth: make([]float64, sbss),
		EdgeCost:  make([][]float64, sbss),
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
	for i := 0; i < sbss; i++ {
		inst.Links[i] = make([]bool, u)
		inst.EdgeCost[i] = make([]float64, u)
		for j := 0; j < u; j++ {
			inst.Links[i][j] = rng.Float64() < 0.6
			inst.EdgeCost[i][j] = 1 + rng.Float64()*3
		}
		inst.CacheCap[i] = 1 + rng.Intn(f/2+1)
		inst.Bandwidth[i] = 5 + rng.Float64()*40
	}
	return inst
}

// runClusterEpisodes appends ClusterEpisodes supervised multi-process
// episodes to the soak, stopping at (and shrinking) the first failure.
func (r *soakRun) runClusterEpisodes(ctx context.Context) error {
	for i := 0; i < r.cfg.ClusterEpisodes; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Seeds continue past the in-process episodes so the two modes
		// never share fault schedules.
		seed := r.episodeSeed(r.cfg.Episodes + i)
		spec := clusterSpec(seed)
		insts := make([]*model.Instance, len(spec.Cells))
		cells := make([]chaos.ProcCell, len(spec.Cells))
		for c, cell := range spec.Cells {
			insts[c] = clusterInstance(cell.SBSs, cell.Seed)
			cells[c] = chaos.ProcCell{Name: cell.Name, SBSs: cell.SBSs}
		}
		procs, err := chaos.RandomProcSchedule(seed, cells)
		if err != nil {
			return fmt.Errorf("soak: cluster episode %d: %w", i, err)
		}
		violations := r.executeCluster(ctx, spec, insts, procs)
		if len(violations) > 0 {
			r.logf("cluster episode %d FAILED: %v (proc schedule %s)", i, violations, procs.Spec())
			failure, err := r.shrinkCluster(ctx, i, seed, spec, insts, procs, violations)
			if err != nil {
				return err
			}
			r.res.Failure = failure
			return nil
		}
		r.res.ClusterEpisodes++
		r.logf("cluster episode %d ok (seed %d, %d proc events)", i, seed, len(procs.Events))
	}
	return nil
}

// executeCluster runs one supervised cluster under the given process-fault
// schedule and checks the cluster invariants: the run itself succeeds,
// every cell completes, and every cell converges. (Bit-identity vs the
// in-process reference only holds fault-free, so it is not asserted here;
// the cluster suite's own tests pin it.)
func (r *soakRun) executeCluster(ctx context.Context, spec model.ClusterSpec,
	insts []*model.Instance, procs chaos.ProcSchedule) []Violation {
	runDir, err := os.MkdirTemp("", "soak-cluster-")
	if err != nil {
		return []Violation{{"cluster-run-error", fmt.Sprintf("run dir: %v", err)}}
	}
	defer os.RemoveAll(runDir)

	var logBuf bytes.Buffer
	sup, err := cluster.NewSupervisor(cluster.Config{
		Spec:      spec,
		Instances: insts,
		Command:   r.cfg.Command,
		RunDir:    runDir,
		Proc:      procs,
		Log:       &logBuf,
	})
	if err != nil {
		return []Violation{{"cluster-run-error", fmt.Sprintf("supervisor: %v", err)}}
	}
	res, runErr := sup.Run(ctx)
	if runErr != nil {
		return []Violation{{"cluster-run-error",
			fmt.Sprintf("%v\nsupervisor log:\n%s", runErr, logBuf.String())}}
	}
	var violations []Violation
	for _, cell := range res.Cells {
		if !cell.Completed || cell.Result == nil {
			violations = append(violations, Violation{"cluster-completed",
				fmt.Sprintf("cell %s did not complete: %s", cell.Name, cell.Failure)})
			continue
		}
		if !cell.Result.Converged {
			violations = append(violations, Violation{"cluster-converged",
				fmt.Sprintf("cell %s did not converge in %d sweeps", cell.Name, cell.Result.Sweeps)})
		}
	}
	return violations
}

// shrinkCluster ddmin-minimizes a failing process-fault schedule. Each
// probe is a full supervised re-run, so the shrinkRuns budget matters far
// more here than in-process.
func (r *soakRun) shrinkCluster(ctx context.Context, episode int, seed int64,
	spec model.ClusterSpec, insts []*model.Instance,
	procs chaos.ProcSchedule, violations []Violation) (*Failure, error) {
	failure := &Failure{
		Episode:    episode,
		Seed:       seed,
		Violations: violations,
		Proc:       procs,
		MinProc:    procs,
		Cluster:    true,
	}
	rerun := func(events []chaos.ProcEvent) []Violation {
		return r.executeCluster(ctx, spec, insts, chaos.ProcSchedule{Events: events})
	}
	return shrinkFailure(ctx, r, "cluster shrink", failure, procs.Events, rerun,
		func(events []chaos.ProcEvent) { failure.MinProc = chaos.ProcSchedule{Events: events} })
}
