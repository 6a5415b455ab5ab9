// MotifMiner example: first run the real parallel frequent-substructure
// miner and compare it against a serial reference, then sweep checkpoint
// group sizes on the paper's timed model (the Figure 7 experiment at one
// issuance point).
package main

import (
	"fmt"
	"maps"
	"os"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload/motif"
)

func main() {
	// Part 1: real mining across 8 ranks, validated against a serial run.
	mine := motif.Mine{Graphs: 48, Vertices: 14, Degree: 3, Labels: 5,
		MinSup: 16, MaxLen: 3, Seed: 7}
	_, launched, err := harness.Run(harness.PaperCluster(8), mine, nil)
	must(err)
	inst := launched.(*motif.MineInstance)
	serial := mine.MineSerial()
	fmt.Printf("real miner %s: %d frequent patterns, parallel==serial: %v\n",
		mine.Name(), len(inst.Frequent), maps.Equal(serial, inst.Frequent))
	if !maps.Equal(serial, inst.Frequent) {
		must(fmt.Errorf("parallel miner found %v, serial %v", inst.Frequent, serial))
	}
	for _, p := range inst.SortedPatterns()[:min(5, len(inst.Frequent))] {
		fmt.Printf("  pattern %-12s support %d/%d\n", p, inst.Frequent[p], mine.Graphs)
	}

	// Part 2: the paper's timed run, checkpointed at t=30s (the point of
	// the paper's headline 70% reduction for group size 4).
	w := motif.PaperTimed()
	cfg := harness.PaperCluster(w.N)
	base, err := harness.Baseline(cfg, w)
	must(err)
	fmt.Printf("\ntimed MotifMiner (%s), baseline completion %v\n", w.Name(), base)
	fmt.Println("checkpoint at t=30s:")
	for _, gs := range []int{0, 16, 8, 4, 2, 1} {
		run := cfg
		run.CR.GroupSize = gs
		res, err := harness.MeasureWithBaseline(run, w, 30*sim.Second, base)
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
		fmt.Fprintln(os.Stderr, "motifminer:", err)
		os.Exit(1)
	}
}
