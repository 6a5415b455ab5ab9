package figures

import (
	"fmt"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// MicroConfig parameterizes the Figure 3/4 micro-benchmark cluster: 32
// processes with a 180 MB footprint each, as in Section 6.1.
const (
	microN         = 32
	microFootprint = 180 // MB
	microChunk     = 100 * sim.Millisecond
)

// Fig3 reproduces Figure 3: Effective Checkpoint Delay for communication
// group sizes 16/8/4/2/1 (1 = embarrassingly parallel) across checkpoint
// group sizes All(32)/16/8/4/2. The full matrix (five workloads × five
// checkpoint group sizes) is scheduled concurrently; each workload's
// baseline is memoized, so it runs once however the cells interleave.
func (g *Generator) Fig3() (*Table, error) {
	commSizes := []int{16, 8, 4, 2, 1}
	ckptSizes := []int{0, 16, 8, 4, 2}
	t := &Table{
		Title:     "Figure 3: Effective Checkpoint Delay vs Checkpoint Group Size",
		Unit:      "s",
		ColHeader: "ckpt group",
		RowHeader: "comm group",
	}
	for _, gs := range ckptSizes {
		label := "All(32)"
		if gs > 0 {
			label = fmt.Sprint(gs)
		}
		t.Cols = append(t.Cols, label)
	}
	for _, cg := range commSizes {
		label := fmt.Sprintf("Comm %d", cg)
		if cg == 1 {
			label = "Embar. Parallel"
		}
		t.Rows = append(t.Rows, label)
	}
	return g.fill("fig3", t, len(commSizes)*len(ckptSizes), func(i int) error {
		ri, ci := i/len(ckptSizes), i%len(ckptSizes)
		w := workload.CommGroups{
			N: microN, CommGroupSize: commSizes[ri], Iters: 900,
			Chunk: microChunk, FootprintMB: microFootprint,
		}
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = ckptSizes[ci]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		t.Cells[ri][ci] = secs(res.EffectiveDelay())
		return nil
	})
}

// Fig4 reproduces Figure 4: checkpoint placement. Communication and
// checkpoint group size are both 8, a global barrier runs every minute, and
// the checkpoint is issued at 15–115 s. The effective delay lies between the
// Individual and Total checkpoint times, approaching the total when the
// request lands close to the synchronization line at 60 s.
func (g *Generator) Fig4() (*Table, error) {
	t := &Table{
		Title:     "Figure 4: Checkpoint Placement (comm group 8, ckpt group 8, barrier every 60s)",
		Unit:      "s",
		ColHeader: "issuance time (s)",
		RowHeader: "metric",
		Rows:      []string{"Effective Ckpt Delay", "Individual Ckpt Time", "Total Ckpt Time"},
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 3 * 600, Chunk: microChunk,
		BarrierEvery: sim.Minute, FootprintMB: microFootprint,
	}
	cfg := harness.PaperCluster(microN)
	cfg.CR.GroupSize = 8
	var times []sim.Time
	for s := 15; s <= 115; s += 10 {
		times = append(times, sim.Time(s)*sim.Second)
		t.Cols = append(t.Cols, fmt.Sprint(s))
	}
	return g.fill("fig4", t, len(times), func(i int) error {
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: times[i]}, nil)
		if err != nil {
			return err
		}
		t.Cells[0][i] = secs(res.EffectiveDelay())
		t.Cells[1][i] = secs(res.Report.MeanIndividual())
		t.Cells[2][i] = secs(res.Total())
		return nil
	})
}
