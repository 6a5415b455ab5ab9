// Restart example: run a ring application with periodic group-based
// checkpointing, lose the whole job to a crash mid-run, restart every rank
// from the last committed checkpoint (taken group by group, so the snapshots
// were written at different wall-clock times), and verify the recovered
// execution produces exactly the failure-free results.
package main

import (
	"fmt"
	"os"
	"slices"

	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

func main() {
	const n, iters = 8, 80
	cfg := harness.PaperCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.LocalSetup = 50 * sim.Millisecond
	w := workload.Ring{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: 16}
	const interval = sim.Second

	ref, err := harness.RunScenario(cfg, w, fault.Scenario{}, interval, nil)
	must(err)
	fmt.Printf("failure-free run, checkpointed every %v, finished at %v\n", interval, ref.Wall)

	// Lose the whole job at 3s; it restarts from storage.
	scn, err := fault.Parse("crash@3s")
	must(err)
	res, err := harness.RunScenario(cfg, w, scn, interval, nil)
	must(err)
	if res.Failures != 1 {
		must(fmt.Errorf("%v lost the job %d times, want once", scn, res.Failures))
	}
	fmt.Printf("%v: job lost and restarted from the last committed epoch (%d snapshots read back)\n",
		scn, res.RecoveredCentral)
	fmt.Printf("restarted run finished at %v (%v lost to the crash and read-back)\n", res.Wall, res.Wall-ref.Wall)

	got, want := res.FinalInst.(*workload.RingInstance).Sums, ref.FinalInst.(*workload.RingInstance).Sums
	if !slices.Equal(got, want) {
		must(fmt.Errorf("recovered sums %v, failure-free %v: the recovery line is inconsistent", got, want))
	}
	fmt.Println("all ranks' results identical to the failure-free run: the")
	fmt.Println("staggered group-by-group snapshots form a consistent recovery line")
}

// must exits with err on one stderr line.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "restart:", err)
		os.Exit(1)
	}
}
