package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"edgecache/internal/leak"
	"edgecache/internal/model"
)

// TestParallelSweepZeroAllocsPerWorker pins the steady-state allocation
// contract of the worker pool: after the pool has spawned and the
// per-worker scratch and solver workspaces are warm, a full Jacobi round
// — solve fan-out, aggregate merge, overserve repair — performs zero heap
// allocations on any goroutine (AllocsPerRun counts process-wide mallocs,
// so worker allocations are included). Any allocation sneaking into
// runPhase, solveShare or the tracker row kernels fails this test, in
// concert with the static noalloc analyzer gate. With the memo on, the
// measured rounds are mostly answered from the memo by the workers; with
// it off, every round solves all N sub-problems and merges every row.
func TestParallelSweepZeroAllocsPerWorker(t *testing.T) {
	// The pool's workers must all exit when the coordinator closes.
	leak.Check(t)
	const workers = 4
	inst := benchScale(workers, 30, 50)
	for _, tc := range []struct {
		name string
		memo bool
	}{{"memo", true}, {"no-memo", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := parallelCfg(workers)
			cfg.DisableIncremental = !tc.memo
			c, err := NewCoordinator(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			st := NewSweepState(inst, identityOrder(inst.N))

			// Every round's solves and memo hits, read from the per-SBS
			// counters, must partition N; the first round that does not is
			// kept for the report (formatting it here would allocate).
			bad := -1
			var badWork SweepWork
			rounds := 0
			round := func() {
				prev := c.workTotals()
				if err := c.engine.Sweep(st, 0); err != nil {
					panic(err)
				}
				tot := c.workTotals()
				work := SweepWork{Solves: tot.Solves - prev.Solves, Skipped: tot.Skipped - prev.Skipped}
				if bad < 0 && (work.Solves+work.Skipped != inst.N || !tc.memo && work.Skipped != 0) {
					bad, badWork = rounds, work
				}
				cost := model.TotalServingCostFromAggregate(inst, st.Y, st.Tracker.Aggregate())
				allocSink = cost.Total
				rounds++
			}

			// Warm up: spawn the pool, size the solver workspaces.
			round()
			round()

			if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
				t.Fatalf("steady-state parallel round allocated %.1f times per run, want 0", allocs)
			}
			if bad >= 0 {
				t.Fatalf("round %d: %d solves + %d skips do not partition N=%d (memo %v)",
					bad, badWork.Solves, badWork.Skipped, inst.N, tc.memo)
			}
		})
	}
}

// TestParallelSetupMatchesSerial checks the setup fan-out: at
// edgebench's dense and sparse shapes, the per-SBS solvers NewCoordinator
// builds for the parallel engine on 1, 2 and 3 workers equal, field for
// field, the ones a serial newSubproblem loop builds. Every setup
// goroutine must have exited by the end of the test.
func TestParallelSetupMatchesSerial(t *testing.T) {
	leak.Check(t)
	for _, tc := range []struct {
		name string
		inst *model.Instance
	}{
		{"dense", denseShape()},
		{"sparse", shapeInstance(99, 100, 60, 60, 0.05)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst
			want := make([]*Subproblem, inst.N)
			for n := range want {
				sub, err := NewSubproblem(inst, n, DefaultSubproblemConfig())
				if err != nil {
					t.Fatal(err)
				}
				want[n] = sub
			}
			for _, workers := range []int{1, 2, 3} {
				c, err := NewCoordinator(inst, parallelCfg(workers))
				if err != nil {
					t.Fatal(err)
				}
				c.Close()
				for n := range want {
					if !reflect.DeepEqual(c.subs[n], want[n]) {
						t.Fatalf("%d workers: SBS %d's subproblem differs from the serially built one", workers, n)
					}
				}
			}
		})
	}
}

// TestParallelPoolChaosScheduledCrashes hammers the worker pool under a
// seeded chaos schedule of SBS solver crashes, under -race: on
// chaos-scheduled rounds one SBS's solver is swapped for a broken one
// (wrong instance shape, so its Solve fails mid-round while the other
// workers race through theirs), the round must surface the error without
// corrupting the pre-round state, and the retried round must put the
// trajectory back on the reference path bit-for-bit. Three schedules run
// in parallel to multiply scheduler interleavings.
func TestParallelPoolChaosScheduledCrashes(t *testing.T) {
	// Crash-and-retry rounds must not strand pool workers. The subtests
	// run in parallel, so the guard sits on the parent: it fires after
	// every subtest (and its pools) finished.
	leak.Check(t)
	const rounds = 12
	for _, seed := range []int64{11, 23, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			inst := randomInstance(rng, 5, 8, 10)

			// Reference trajectory: the same rounds on the sequential
			// reference engine, undisturbed.
			ref, err := NewCoordinator(inst, jacobiCfg())
			if err != nil {
				t.Fatal(err)
			}
			refSt := NewSweepState(inst, identityOrder(inst.N))
			var want []float64
			for sweep := 0; sweep < rounds; sweep++ {
				if err := ref.engine.Sweep(refSt, sweep); err != nil {
					t.Fatal(err)
				}
				want = append(want, model.TotalServingCostFromAggregate(inst, refSt.Y, refSt.Tracker.Aggregate()).Total)
			}

			c, err := NewCoordinator(inst, parallelCfg(4))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// The "crashed" solver: built for a different instance shape, so
			// its Solve rejects the real y_{-n} mid-round.
			broken, err := NewSubproblem(randomInstance(rng, 2, 3, 4), 0, DefaultSubproblemConfig())
			if err != nil {
				t.Fatal(err)
			}

			st := NewSweepState(inst, identityOrder(inst.N))
			crashes := 0
			var got []float64
			for sweep := 0; sweep < rounds; sweep++ {
				// Chaos schedule: the seeded rng decides which SBS crashes
				// this round, if any. The swap happens on the driver
				// goroutine between rounds; the barrier channels carry the
				// happens-before edge to the workers.
				if rng.Intn(2) == 1 {
					n := rng.Intn(inst.N)
					crashes++
					saved := c.subs[n]
					c.subs[n] = broken
					if err := c.engine.Sweep(st, sweep); err == nil {
						t.Fatalf("sweep %d: crashed SBS %d surfaced no error", sweep, n)
					}
					c.subs[n] = saved
				}
				if err := c.engine.Sweep(st, sweep); err != nil {
					t.Fatalf("sweep %d: recovery round: %v", sweep, err)
				}
				got = append(got, model.TotalServingCostFromAggregate(inst, st.Y, st.Tracker.Aggregate()).Total)
			}
			if crashes == 0 {
				t.Fatalf("seed %d scheduled no crashes; pick a seed that does", seed)
			}
			bitEqualHistories(t, got, want, "chaos-crashed parallel trajectory")
		})
	}
}
