// Quickstart: assemble the simulated cluster stack, run a small MPI job
// that computes and exchanges messages, take one group-based checkpoint in
// the middle, and print the paper's three delay metrics.
package main

import (
	"fmt"
	"os"

	"gbcr/internal/cr"
	"gbcr/internal/harness"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
)

func main() {
	// A cluster with the paper's testbed parameters (InfiniBand fabric,
	// 4-server PVFS2 storage at ~140 MB/s aggregate), 8 ranks, checkpoint
	// groups of 2.
	cfg := harness.PaperCluster(8)
	cfg.CR = cr.Config{GroupSize: 2, HelperEnabled: true,
		DefaultFootprint: 100 << 20, LocalSetup: 100 * sim.Millisecond}

	runOnce := func(checkpoint bool) (sim.Time, *cr.CycleReport) {
		c, err := harness.NewCluster(cfg)
		must(err)
		// Each rank: 60 iterations of 100 ms compute followed by an
		// exchange with its partner (pairs align with the checkpoint
		// groups, so other pairs keep computing during each group's
		// checkpoint — the scenario the paper's design targets).
		c.Job.LaunchAll(func(e *mpi.Env) {
			world := e.World()
			me := e.Rank()
			partner := me ^ 1
			for i := 0; i < 60; i++ {
				e.Compute(100 * sim.Millisecond)
				e.SendrecvWord(world, partner, 1, uint64(me*100+i), partner, 1)
			}
		})
		if checkpoint {
			c.Coord.ScheduleCheckpoint(2 * sim.Second)
		}
		must(c.K.Run())
		var rep *cr.CycleReport
		if checkpoint {
			reps, err := c.Coord.Reports()
			must(err)
			rep = reps[0]
		}
		return c.Job.FinishTime(), rep
	}

	baseline, _ := runOnce(false)
	withCkpt, rep := runOnce(true)

	fmt.Println("group-based coordinated checkpointing quickstart")
	fmt.Printf("  ranks:                   %d (checkpoint groups of 2)\n", cfg.N)
	fmt.Printf("  baseline completion:     %v\n", baseline)
	fmt.Printf("  with one checkpoint:     %v\n", withCkpt)
	fmt.Printf("  effective ckpt delay:    %v\n", withCkpt-baseline)
	fmt.Printf("  individual ckpt time:    %v (mean across ranks)\n", rep.MeanIndividual())
	fmt.Printf("  total ckpt time:         %v\n", rep.Total())
	fmt.Printf("  storage share of delay:  %.1f%%\n", 100*rep.StorageShare())
	fmt.Printf("  groups scheduled:        %v\n", rep.Groups)
}

// must exits with err on one stderr line.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}
