// Command edgesim runs one edge-caching scenario end-to-end and reports
// the serving cost, the convergence history and the privacy accounting.
//
// Usage:
//
//	edgesim                          # paper-default scenario, in-process
//	edgesim -epsilon 0.1 -delta 0.5  # with LPPM
//	edgesim -distributed             # BS + SBS agents over an in-memory bus
//	edgesim -groups 40 -links 60     # topology overrides
//	edgesim -compare                 # also run LRFU and no-cache baselines
//	edgesim -chaos "drop=0.3,crash=1@1+3"  # distributed run under faults
//	edgesim -engine jacobi           # reference Jacobi rounds instead of Gauss-Seidel
//	edgesim -engine parallel -workers 8    # goroutine-sharded Jacobi worker pool
//	edgesim -checkpoint-dir ckpt     # snapshot sweep state for crash recovery
//	edgesim -checkpoint-dir ckpt -resume   # continue from the newest snapshot
//	edgesim -cluster -cells cells.json     # multi-process cluster (supervisor mode)
//	edgesim -cluster -cells cells.json -proc-chaos "kill=cell-1@2"  # with process faults
//	edgesim -soak -soak-episodes 25 -soak-seed 1   # randomized chaos soak with fault minimization
//	edgesim -soak -soak-cluster 2          # append supervised multi-process soak episodes
//	edgesim -soak -soak-repro soak-repro-ep3-seed42.txt  # replay a minimized failing schedule
//	edgesim -cpuprofile cpu.pprof -memprofile mem.pprof -trace trace.out  # profile the run
//
// With -cluster the binary becomes a supervisor that re-executes itself as
// agent processes (`edgesim -role bs|sbs ...`, an internal sub-entrypoint).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"edgecache/internal/baseline"
	"edgecache/internal/chaos"
	"edgecache/internal/cluster"
	"edgecache/internal/core"
	"edgecache/internal/dp"
	"edgecache/internal/experiments"
	"edgecache/internal/model"
	"edgecache/internal/prof"
	"edgecache/internal/sim"
	"edgecache/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edgesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Agent sub-entrypoint: the cluster supervisor launches this same
	// binary with "-role bs|sbs" as the first argument; everything after
	// is agent flags. Checked before flag parsing so the agent flag set
	// stays private to the cluster package.
	if len(args) > 0 && args[0] == "-role" {
		return cluster.AgentMain(args)
	}
	fs := flag.NewFlagSet("edgesim", flag.ContinueOnError)
	var (
		sbss        = fs.Int("sbss", 3, "number of SBSs")
		groups      = fs.Int("groups", 30, "number of MU groups")
		links       = fs.Int("links", 40, "total MU-SBS links")
		videos      = fs.Int("videos", 50, "catalog size")
		cacheCap    = fs.Int("cache", 10, "cache capacity per SBS")
		bandwidth   = fs.Float64("bandwidth", 1000, "bandwidth per SBS")
		seed        = fs.Int64("seed", 1, "scenario seed")
		epsilon     = fs.Float64("epsilon", 0, "LPPM privacy budget ε (0 disables privacy)")
		delta       = fs.Float64("delta", 0.5, "LPPM Laplace component factor δ")
		distributed = fs.Bool("distributed", false, "run BS and SBS agents over a message bus")
		chaosSpec   = fs.String("chaos", "", "distributed run under a fault schedule, e.g. \"seed=7,drop=0.3,crash=1@1+3\"")
		phaseTO     = fs.Duration("phase-timeout", 0, "BS phase timeout for -chaos runs (default 2s)")
		compare     = fs.Bool("compare", false, "also run the LRFU and no-cache baselines")
		restarts    = fs.Int("restarts", 0, "extra shuffled-order restarts (extension)")
		engine      = fs.String("engine", "gs", "sweep engine: gs (sequential Gauss-Seidel), jacobi (reference round updates), parallel (goroutine-sharded Jacobi)")
		workers     = fs.Int("workers", 0, "worker-pool size for -engine parallel (0 means GOMAXPROCS)")
		regions     = fs.Int("regions", 1, "number of BS coordination regions (multi-BS extension)")
		saveInst    = fs.String("save-instance", "", "write the built instance as JSON and continue")
		loadInst    = fs.String("load-instance", "", "load the instance from JSON instead of building a scenario")
		saveSol     = fs.String("save-solution", "", "write the final solution as JSON")
		validate    = fs.Bool("validate", false, "packet-level replay of the solved policy (fluid-model check)")
		ckptDir     = fs.String("checkpoint-dir", "", "snapshot sweep state into this directory at every sweep boundary (in-process mode)")
		ckptRetain  = fs.Int("checkpoint-retain", 3, "how many snapshots -checkpoint-dir keeps (0 keeps all)")
		resume      = fs.Bool("resume", false, "continue from the newest snapshot in -checkpoint-dir instead of starting cold")
		clusterMode = fs.Bool("cluster", false, "supervise a multi-process cluster per the -cells spec")
		cellsPath   = fs.String("cells", "", "cluster spec JSON for -cluster")
		procChaos   = fs.String("proc-chaos", "", "process-fault schedule for -cluster, e.g. \"kill=cell-1@2,stop=cell-0.1@1+100ms\"")
		runDir      = fs.String("run-dir", "", "cluster run directory for -cluster (default: a fresh temp dir)")
		soakMode    = fs.Bool("soak", false, "run the randomized chaos soak harness instead of a scenario")
		soakEps     = fs.Int("soak-episodes", 10, "in-process soak episode count")
		soakSeed    = fs.Int64("soak-seed", 1, "soak base seed (derives every episode's schedule)")
		soakCluster = fs.Int("soak-cluster", 0, "supervised multi-process soak episodes to append")
		soakDisk    = fs.Bool("soak-disk", true, "run the per-episode disk fault-injection drill")
		soakRepro   = fs.String("soak-repro", "", "replay a minimized soak repro file instead of soaking")
		soakDir     = fs.String("soak-repro-dir", ".", "directory for minimized repro files on soak failure")
		cpuProf     = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf     = fs.String("memprofile", "", "write a pprof heap profile (post-GC live set) to this file at exit")
		traceOut    = fs.String("trace", "", "write a runtime execution trace of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := prof.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		return err
	}
	defer sess.Stop()
	if *clusterMode {
		if err := runCluster(*cellsPath, *procChaos, *runDir); err != nil {
			return err
		}
		return sess.Stop()
	}
	if *cellsPath != "" || *procChaos != "" || *runDir != "" {
		return fmt.Errorf("-cells, -proc-chaos and -run-dir require -cluster")
	}
	if *soakMode || *soakRepro != "" {
		if err := runSoak(*soakEps, *soakSeed, *soakCluster, *soakDisk, *soakDir, *soakRepro); err != nil {
			return err
		}
		return sess.Stop()
	}
	engineKind, err := model.ParseEngineKind(*engine)
	if err != nil {
		return err
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		// Checkpointing covers the in-process coordinator (any engine, at
		// sweep boundaries); the chaos runner manages its own store for
		// bscrash recovery, and the remaining modes have no resume path.
		switch {
		case *chaosSpec != "":
			return fmt.Errorf("-checkpoint-dir is not supported with -chaos (bscrash schedules auto-install an in-memory store)")
		case *distributed:
			return fmt.Errorf("-checkpoint-dir is not supported with -distributed")
		case *regions > 1:
			return fmt.Errorf("-checkpoint-dir is not supported with -regions")
		case *restarts > 0:
			return fmt.Errorf("-checkpoint-dir is not supported with -restarts")
		}
	}

	var inst *model.Instance
	if *loadInst != "" {
		f, err := os.Open(*loadInst)
		if err != nil {
			return err
		}
		inst, err = model.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		sc := experiments.DefaultScenario()
		sc.SBSs = *sbss
		sc.Groups = *groups
		sc.LinkCount = *links
		sc.Videos = *videos
		sc.CachePerSBS = *cacheCap
		sc.Bandwidth = *bandwidth
		sc.Seed = *seed
		var err error
		inst, err = sc.Build()
		if err != nil {
			return err
		}
	}
	if *saveInst != "" {
		f, err := os.Create(*saveInst)
		if err != nil {
			return err
		}
		if err := inst.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote instance to %s\n", *saveInst)
	}
	fmt.Printf("scenario: %s\n\n", inst.Summarize())

	var acct dp.Accountant
	privacy := func(n int) *core.PrivacyConfig {
		if *epsilon <= 0 {
			return nil
		}
		return &core.PrivacyConfig{
			Epsilon:    *epsilon,
			Delta:      *delta,
			Rng:        rand.New(rand.NewSource(*seed*1000 + int64(n))),
			Accountant: &acct,
		}
	}

	var res *core.RunResult
	mode := "in-process coordinator"
	switch {
	case *chaosSpec != "":
		mode = "distributed agents under chaos schedule"
		sched, perr := chaos.ParseSpec(*chaosSpec)
		if perr != nil {
			return perr
		}
		if *phaseTO <= 0 {
			*phaseTO = 2 * time.Second
		}
		var report *chaos.Report
		res, report, err = chaos.Run(context.Background(), inst, chaos.Config{
			BS:         sim.BSConfig{PhaseTimeout: *phaseTO},
			Sub:        core.DefaultSubproblemConfig(),
			PrivacyFor: privacy,
			Schedule:   sched,
		})
		if err == nil {
			defer func() {
				fmt.Printf("\nchaos: %d scheduled events fired, %d never triggered\n",
					len(report.Fired), len(report.Unfired))
				for _, f := range report.Fired {
					fmt.Printf("  %s (fired at sweep %d phase %d)\n", f.Event, f.AtSweep, f.AtPhase)
				}
			}()
		}
	case *distributed:
		mode = "distributed agents (in-memory bus)"
		var stats transport.Stats
		res, stats, err = sim.RunInmemWithStats(context.Background(), inst, sim.BSConfig{}, core.DefaultSubproblemConfig(), privacy)
		if err == nil {
			defer fmt.Printf("\nBS traffic: %d messages sent (%d payload bytes), %d received (%d bytes)\n",
				stats.SentMessages, stats.SentBytes, stats.RecvMessages, stats.RecvBytes)
		}
	case *regions > 1:
		mode = fmt.Sprintf("multi-BS coordination (%d regions)", *regions)
		if *regions > inst.N {
			return fmt.Errorf("cannot split %d SBSs into %d regions", inst.N, *regions)
		}
		parts := make([][]int, *regions)
		for n := 0; n < inst.N; n++ {
			parts[n%*regions] = append(parts[n%*regions], n)
		}
		res, err = core.RunMultiBS(inst, core.MultiBSConfig{
			Regions: parts,
			Sub:     core.DefaultSubproblemConfig(),
			Privacy: privacy(0),
		})
	default:
		cfg := core.DefaultConfig()
		cfg.Privacy = privacy(0)
		cfg.Restarts = *restarts
		cfg.RestartSeed = *seed
		cfg.Engine = engineKind
		cfg.Workers = *workers
		switch engineKind {
		case model.EngineJacobi:
			mode = "in-process coordinator (reference Jacobi rounds)"
		case model.EngineParallelJacobi:
			mode = "in-process coordinator (parallel Jacobi worker pool)"
		}
		var store *model.CheckpointStore
		if *ckptDir != "" {
			store, err = model.NewCheckpointStore(*ckptDir, *ckptRetain)
			if err != nil {
				return err
			}
			// A checkpointed private run needs a seekable noise source: the
			// snapshot records the stream position so a resumed run replays
			// the identical noise (a bare *rand.Rand has no position).
			if cfg.Privacy != nil {
				cfg.Privacy.Rng = nil
				cfg.Privacy.Noise = core.NewNoiseSource(*seed * 1000)
			}
			cfg.Checkpoint = &core.CheckpointConfig{Sink: store, EverySweeps: 1}
		}
		var coord *core.Coordinator
		coord, err = core.NewCoordinator(inst, cfg)
		if err != nil {
			return err
		}
		defer coord.Close()
		if *resume {
			mode += " (resumed)"
			// Resume follows an interrupted run: CRC-verify candidates and
			// quarantine corrupt ones on the way to the newest intact.
			ck, lerr := store.DeepLatest()
			if lerr != nil {
				return fmt.Errorf("resume from %s: %w", *ckptDir, lerr)
			}
			fmt.Printf("resuming from checkpoint at sweep %d phase %d\n\n", ck.Sweep, ck.Phase)
			res, err = coord.Resume(ck)
		} else {
			res, err = coord.Run()
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 1 (%s): %s\n", mode, res.Solution)
	fmt.Printf("converged=%v after %d sweeps; served fraction %.1f%%\n",
		res.Converged, res.Sweeps, 100*model.ServedFraction(inst, res.Solution.Routing))
	fmt.Println("cost per sweep:")
	for i, c := range res.History {
		fmt.Printf("  sweep %2d: %.1f\n", i+1, c)
	}
	for n := 0; n < inst.N; n++ {
		fmt.Printf("SBS %d caches %v (load %.1f / %.0f)\n",
			n, res.Solution.Caching.Contents(n), res.Solution.Routing.Load(inst, n), inst.Bandwidth[n])
	}
	if total := res.TotalFaults(); res.Faults != nil && total != (core.SBSFaultStats{}) {
		fmt.Println("fault accounting (BS view):")
		for n, f := range res.Faults {
			if f == (core.SBSFaultStats{}) {
				continue
			}
			fmt.Printf("  SBS %d: misses=%d retries=%d malformed=%d quarantines=%d skipped-phases=%d failed-probes=%d\n",
				n, f.Misses, f.Retries, f.Malformed, f.QuarantineSpans, f.SkippedPhases, f.FailedProbes)
		}
	}
	if *epsilon > 0 {
		fmt.Printf("\n%s\n", acct.String())
	}
	if *saveSol != "" {
		f, err := os.Create(*saveSol)
		if err != nil {
			return err
		}
		if err := res.Solution.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote solution to %s\n", *saveSol)
	}
	if *validate {
		report, err := sim.ValidatePolicy(inst, res.Solution, sim.ValidateOptions{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("\npacket-level replay: realized cost %.1f vs model %.1f (error %.2f%%, %d/%d edge-served, %d fallbacks)\n",
			report.RealizedCost.Total, report.ModelCost.Total, report.RelativeError*100,
			report.EdgeServed, report.Requests, report.Fallbacks)
	}

	if *compare {
		fmt.Println()
		lrfu, err := baseline.PlanLRFU(inst, baseline.LRFUConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("LRFU (online replay): cost=%.1f (edge=%.1f backhaul=%.1f), hit rate %.1f%%\n",
			lrfu.OnlineCost.Total, lrfu.OnlineCost.Edge, lrfu.OnlineCost.Backhaul, 100*lrfu.HitRate)
		nc, err := baseline.NoCache(inst)
		if err != nil {
			return err
		}
		fmt.Printf("no-cache ceiling:     cost=%.1f\n", nc.Cost.Total)
		fmt.Printf("Algorithm 1 saves %.1f%% versus LRFU and %.1f%% versus no caching\n",
			100*(lrfu.OnlineCost.Total-res.Solution.Cost.Total)/lrfu.OnlineCost.Total,
			100*(nc.Cost.Total-res.Solution.Cost.Total)/nc.Cost.Total)
	}
	return sess.Stop()
}
