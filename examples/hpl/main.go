// HPL example: first validate the MPI stack with a real distributed LU
// factorization on a 2x2 grid, then sweep checkpoint group sizes on the
// paper's 8x4 timed HPL run and print the effective delays (the Figure 5/6
// experiment at one issuance point).
package main

import (
	"fmt"
	"os"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload/hpl"
)

func main() {
	// Part 1: a real LU solve through the full simulated stack.
	solve := hpl.Solve{N: 64, NB: 8, P: 2, Q: 2, Seed: 42}
	c, err := harness.NewCluster(harness.PaperCluster(4))
	must(err)
	launched, err := solve.Launch(c.Job)
	must(err)
	inst := launched.(*hpl.SolveInstance)
	must(c.K.Run())
	fmt.Printf("real HPL solve %s: max residual %.2e (simulated wall time %v)\n",
		solve.Name(), inst.MaxResidual, c.Job.FinishTime())
	if !(inst.MaxResidual <= 1e-9) { // written so that NaN fails it
		must(fmt.Errorf("residual %g above the 1e-9 bound: L·U does not reproduce A", inst.MaxResidual))
	}

	// Part 2: the paper's timed 8x4 run, checkpointed at t=50s with
	// different group sizes.
	w := hpl.PaperTimed()
	cfg := harness.PaperCluster(w.P * w.Q)
	base, err := harness.Baseline(cfg, w)
	must(err)
	fmt.Printf("\ntimed HPL (%s), baseline completion %v\n", w.Name(), base)
	fmt.Println("checkpoint at t=50s:")
	for _, gs := range []int{0, 16, 8, 4, 2, 1} {
		run := cfg
		run.CR.GroupSize = gs
		res, err := harness.MeasureWithBaseline(run, w, 50*sim.Second, base)
		must(err)
		label := "All(32)   "
		if gs > 0 {
			label = fmt.Sprintf("Group(%-2d) ", gs)
		}
		fmt.Printf("  %s effective delay %8v   individual %8v   total %8v\n",
			label, res.EffectiveDelay(), res.MaxIndividual(), res.Total())
	}
}

// must exits with err on one stderr line.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpl:", err)
		os.Exit(1)
	}
}
