// Placement: the Figure 4 experiment — how the effective checkpoint delay
// depends on where the checkpoint request lands relative to the
// application's global synchronization (a barrier every minute). Far from
// the barrier the delay is one group's Individual Checkpoint Time; close to
// it, groups cannot run ahead and the delay approaches the Total Checkpoint
// Time. The paper's advice: "checkpoint request should be placed long
// before synchronization to achieve better overlap."
package main

import (
	"fmt"
	"os"

	"gbcr/internal/figures"
)

func main() {
	t, err := figures.NewGenerator(0).Fig4()
	must(err)
	fmt.Println(t)
	eff, err := t.Row("Effective Ckpt Delay")
	must(err)
	ind, err := t.Row("Individual Ckpt Time")
	must(err)
	tot, err := t.Row("Total Ckpt Time")
	must(err)
	best, worst := eff[0], eff[0]
	for _, v := range eff {
		if v < best {
			best = v
		}
		if v > worst {
			worst = v
		}
	}
	fmt.Printf("individual time %.1fs <= effective delay [%.1fs .. %.1fs] <= total time %.1fs\n",
		ind[0], best, worst, tot[0])
	fmt.Println("place checkpoints right after a synchronization point, not before one")
}

// must exits with err on one stderr line.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "placement:", err)
		os.Exit(1)
	}
}
