package figures

import (
	"fmt"
	"math"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
	"gbcr/internal/workload/hpl"
	"gbcr/internal/workload/motif"
)

// hplGroupSizes are the checkpoint group sizes of Figures 5–7: the regular
// protocol plus 16/8/4/2/1.
var hplGroupSizes = []int{0, 16, 8, 4, 2, 1}

// groupTimeGrid measures w's Effective Checkpoint Delay on an n-rank paper
// cluster for each checkpoint group size of hplGroupSizes (rows) at every
// multiple of step seconds up to last (columns): the grid of Figures 5 and 7.
func (g *Generator) groupTimeGrid(name, title string, w workload.Workload, n, step, last int) (*Table, error) {
	t := &Table{Title: title, Unit: "s", ColHeader: "issuance time (s)", RowHeader: "ckpt group"}
	for _, gs := range hplGroupSizes {
		t.Rows = append(t.Rows, groupLabel(n, gs))
	}
	var times []sim.Time
	for s := step; s <= last; s += step {
		times = append(times, sim.Time(s)*sim.Second)
		t.Cols = append(t.Cols, fmt.Sprint(s))
	}
	return g.fill(name, t, len(hplGroupSizes)*len(times), func(i int) error {
		ri, ci := i/len(times), i%len(times)
		cfg := harness.PaperCluster(n)
		cfg.CR.GroupSize = hplGroupSizes[ri]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: times[ci]}, nil)
		if err != nil {
			return err
		}
		t.Cells[ri][ci] = secs(res.EffectiveDelay())
		return nil
	})
}

// Fig5 reproduces Figure 5: Effective Checkpoint Delay for HPL on the 8×4
// grid at eight issuance points (50–400 s) across checkpoint group sizes.
// The 6×8 grid shares one memoized baseline.
func (g *Generator) Fig5() (*Table, error) {
	w := hpl.PaperTimed()
	n := w.P * w.Q
	t, err := g.groupTimeGrid("fig5", "Figure 5: Effective Checkpoint Delay at 8 Time Points for HPL (8x4)", w, n, 50, 400)
	if err != nil {
		return nil, err
	}
	pct, row, col := maxReduction(t)
	t.Notes = append(t.Notes,
		fmt.Sprintf("max reduction vs All(32): %.0f%% for %s at %ss (paper: 78%% for group 4 at 50s)", pct, row, col))
	for _, gs := range []int{2, 4, 8, 16} {
		r := reductions(t)[groupLabel(n, gs)]
		t.Notes = append(t.Notes, fmt.Sprintf("average reduction, group %d: %.0f%%", gs, r))
	}
	return t, nil
}

// Fig6 summarizes Fig5 the way Figure 6 does: average effective delay per
// checkpoint group size with min and max. It is a pure reduction of the
// Fig5 table and cannot fail.
func (g *Generator) Fig6(fig5 *Table) *Table {
	t := &Table{
		Title:     "Figure 6: Effective Checkpoint Delay vs Checkpoint Group Size for HPL",
		Unit:      "s",
		ColHeader: "statistic",
		RowHeader: "ckpt group",
		Cols:      []string{"mean", "min", "max"},
	}
	for ri, label := range fig5.Rows {
		t.Rows = append(t.Rows, label)
		row := fig5.Cells[ri]
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range row {
			sum += v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		t.Cells = append(t.Cells, []float64{sum / float64(len(row)), lo, hi})
	}
	// Which group sizes win? The paper finds 4 and 8 best, matching the 8x4
	// grid.
	best, bestMean := "", math.Inf(1)
	for i, label := range t.Rows {
		if t.Cells[i][0] < bestMean {
			bestMean = t.Cells[i][0]
			best = label
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("best mean delay: %s (paper: sizes 4 and 8)", best))
	return t
}

// Fig7 reproduces Figure 7: Effective Checkpoint Delay for MotifMiner at
// four issuance points (30–120 s) across checkpoint group sizes.
func (g *Generator) Fig7() (*Table, error) {
	w := motif.PaperTimed()
	t, err := g.groupTimeGrid("fig7", "Figure 7: Effective Checkpoint Delay for MotifMiner (32 ranks)", w, w.N, 30, 120)
	if err != nil {
		return nil, err
	}
	pct, row, col := maxReduction(t)
	t.Notes = append(t.Notes,
		fmt.Sprintf("max reduction vs All(32): %.0f%% for %s at %ss (paper: 70%% for group 4 at 30s)", pct, row, col))
	for _, gs := range []int{16, 8, 4, 2} {
		r := reductions(t)[groupLabel(w.N, gs)]
		t.Notes = append(t.Notes,
			fmt.Sprintf("average reduction, group %d: %.0f%% (paper: %d%%)", gs, r,
				map[int]int{16: 28, 8: 32, 4: 27, 2: 14}[gs]))
	}
	return t, nil
}
