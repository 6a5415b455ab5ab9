package harness

import (
	"testing"

	"gbcr/internal/workload"
)

// raceEnabled is set in race-detector builds.
var raceEnabled bool

// TestWiringAllocsPerRank pins what one more rank costs a simulation in
// allocations: its cluster wiring (endpoint, rank, controller, process) plus
// one iteration of a CommGroups exchange. The slope between a 32- and a
// 64-rank job leaves out the per-simulation constant. Wiring that allocates
// per rank again — a bound method value per upcall, a formatted name, an Env
// per launch, a queue or index grown from empty instead of from a window of
// the job's slabs — shows here before it shows in a benchmark.
func TestWiringAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for every goroutine it tracks")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			c, err := NewCluster(PaperCluster(n))
			if err != nil {
				t.Fatal(err)
			}
			w := workload.CommGroups{N: n, CommGroupSize: 4, Iters: 1, MsgBytes: 8}
			if _, err := w.Launch(c.Job); err != nil {
				t.Fatal(err)
			}
			if err := c.K.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	a32, a64 := allocs(32), allocs(64)
	if slope := (a64 - a32) / 32; slope > 10 {
		t.Errorf("%.1f allocations a rank (%.0f at 32 ranks, %.0f at 64), want ≤ 10", slope, a32, a64)
	} else {
		t.Logf("%.1f allocations a rank (%.0f at 32 ranks, %.0f at 64)", slope, a32, a64)
	}
}
