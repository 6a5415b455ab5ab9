package figures

import (
	"fmt"
	"strings"

	"gbcr/internal/harness"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// AblationReport collects the design-choice studies from Section 4.
type AblationReport struct {
	Tables []*Table
}

// String renders all ablation tables.
func (a *AblationReport) String() string {
	var b strings.Builder
	for _, t := range a.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// Ablations runs the design-choice studies: the asynchronous-progress helper
// thread (Section 4.4), static vs dynamic group formation (Section 4.1),
// connection-management cost sensitivity (Section 4.2), and the phase
// breakdown backing the paper's ">95% storage time" claim (Section 3.1).
func (g *Generator) Ablations() (*AblationReport, error) {
	rep := &AblationReport{}
	for _, gen := range []func() (*Table, error){
		g.AblationHelper,
		g.AblationGroupFormation,
		g.AblationConnCost,
		g.AblationNoise,
		g.PhaseBreakdown,
	} {
		t, err := gen()
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// AblationHelper measures the effective delay with and without the
// passive-coordination helper thread, on a workload with long compute
// chunks (where passive peers would otherwise starve the inter-group
// coordination).
func (g *Generator) AblationHelper() (*Table, error) {
	t := &Table{
		Title:     "Ablation (S4.4): asynchronous progress helper thread (comm group 8, ckpt group 4)",
		Unit:      "s",
		ColHeader: "metric",
		RowHeader: "config",
		Cols:      []string{"effective delay", "mean teardown"},
	}
	// Checkpoint groups of 4 inside communication groups of 8: members hold
	// connections to out-of-group peers that compute in 2-second chunks, so
	// the flush handshake depends on passive-side progress.
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 40,
		Chunk: 2 * sim.Second, FootprintMB: microFootprint,
	}
	var cells []harness.Cell
	for _, helper := range []bool{true, false} {
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = 4
		cfg.CR.HelperEnabled = helper
		cells = append(cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second})
		label := "helper on (100ms)"
		if !helper {
			label = "helper off"
		}
		t.Rows = append(t.Rows, label)
	}
	results, err := g.R.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("figures: helper ablation: %w", err)
	}
	for _, res := range results {
		var teardown sim.Time
		for _, rec := range res.Report.Records {
			teardown += rec.TeardownDone - rec.GoAt
		}
		teardown /= sim.Time(len(res.Report.Records))
		t.Cells = append(t.Cells, []float64{secs(res.EffectiveDelay()), secs(teardown)})
	}
	return t, nil
}

// AblationGroupFormation compares static rank-order groups against dynamic
// communication-pattern groups on a workload whose communication cliques are
// NOT contiguous in rank order (rank i pairs with rank i+N/2), where static
// formation splits every clique and dynamic formation recovers them.
func (g *Generator) AblationGroupFormation() (*Table, error) {
	t := &Table{
		Title:     "Ablation (S4.1): static vs dynamic group formation (strided pair workload)",
		Unit:      "s",
		ColHeader: "metric",
		RowHeader: "formation",
		Cols:      []string{"effective delay"},
	}
	const n = microN
	w := stridedPairs{n: n, iters: 500, chunk: microChunk, footprintMB: microFootprint}
	var cells []harness.Cell
	for _, dynamic := range []bool{false, true} {
		cfg := harness.PaperCluster(n)
		cfg.CR.GroupSize = 2
		cfg.CR.Dynamic = dynamic
		cells = append(cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second})
		label := "static (rank order)"
		if dynamic {
			label = "dynamic (comm pattern)"
		}
		t.Rows = append(t.Rows, label)
	}
	results, err := g.R.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("figures: group-formation ablation: %w", err)
	}
	for _, res := range results {
		t.Cells = append(t.Cells, []float64{secs(res.EffectiveDelay())})
	}
	return t, nil
}

// stridedPairs is a pair-exchange workload whose partners are rank i and
// rank i + n/2 — communication cliques that rank-order grouping cuts apart.
type stridedPairs struct {
	n, iters    int
	chunk       sim.Time
	footprintMB int64
}

func (w stridedPairs) Name() string { return fmt.Sprintf("stridedpairs(n=%d)", w.n) }

func (w stridedPairs) Launch(j *mpi.Job) (workload.Instance, error) {
	for i := 0; i < w.n; i++ {
		j.Launch(i, func(e *mpi.Env) {
			world := e.World()
			partner := (e.Rank() + w.n/2) % w.n
			for it := 0; it < w.iters; it++ {
				e.Compute(w.chunk)
				e.SendrecvSize(world, partner, 1, 1024, partner, 1)
			}
		})
	}
	return workload.ConstFootprint(w.footprintMB << 20), nil
}

// AblationConnCost sweeps the out-of-band connection-management latency to
// show the coordination share of the delay stays small (the paper's premise
// that storage dominates).
func (g *Generator) AblationConnCost() (*Table, error) {
	t := &Table{
		Title:     "Ablation (S4.2): connection management cost sensitivity (comm group 8, ckpt group 8)",
		Unit:      "s",
		ColHeader: "OOB latency",
		RowHeader: "metric",
		Rows:      []string{"effective delay", "mean coordination"},
		Cells:     make([][]float64, 2),
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 900,
		Chunk: microChunk, FootprintMB: microFootprint,
	}
	var cells []harness.Cell
	for _, oob := range []sim.Time{50 * sim.Microsecond, 150 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond} {
		t.Cols = append(t.Cols, oob.String())
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = 8
		cfg.Fabric.OOBLatency = oob
		cells = append(cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second})
	}
	results, err := g.R.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("figures: connection-cost ablation: %w", err)
	}
	for _, res := range results {
		var coord sim.Time
		for _, rec := range res.Report.Records {
			coord += rec.CoordinationTime()
		}
		coord /= sim.Time(len(res.Report.Records))
		t.Cells[0] = append(t.Cells[0], secs(res.EffectiveDelay()))
		t.Cells[1] = append(t.Cells[1], secs(coord))
	}
	return t, nil
}

// PhaseBreakdown reproduces the Section 3.1 observation: storage access time
// is the dominant part of the checkpoint delay (over 95% in the paper's
// measurements).
func (g *Generator) PhaseBreakdown() (*Table, error) {
	t := &Table{
		Title:     "Phase breakdown (S3.1): share of downtime spent writing to storage",
		Unit:      "fraction",
		ColHeader: "ckpt group",
		RowHeader: "metric",
		Rows:      []string{"storage share"},
		Cells:     make([][]float64, 1),
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 900,
		Chunk: microChunk, FootprintMB: microFootprint,
	}
	var cells []harness.Cell
	for _, gs := range []int{0, 8, 2} {
		t.Cols = append(t.Cols, groupLabel(microN, gs))
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = gs
		cells = append(cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second})
	}
	results, err := g.R.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("figures: phase breakdown: %w", err)
	}
	for _, res := range results {
		t.Cells[0] = append(t.Cells[0], res.Report.StorageShare())
	}
	return t, nil
}

// AblationNoise probes the Section 3.1 remark that "system noise, network
// congestion, and unbalanced share of throughput to the storage server can
// significantly increase the delay". The result is a (negative) finding
// worth recording: as long as the storage service is work-conserving,
// per-client share imbalance barely moves the many-writer makespan — the
// redistribution is absorbed until the straggler tail, which is a small
// fraction of the total. The paper's concern therefore points at
// NON-work-conserving effects (congestion collapse, server imbalance),
// which degrade AggregateBW itself (storage.Config.Droop; the table's note
// keeps its old name, the Efficiency hook).
func (g *Generator) AblationNoise() (*Table, error) {
	t := &Table{
		Title:     "Ablation (S3.1): unbalanced storage sharing (straggler noise)",
		Unit:      "s",
		ColHeader: "share jitter",
		RowHeader: "protocol",
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 900,
		Chunk: microChunk, FootprintMB: microFootprint,
	}
	jitters := []float64{0, 0.25, 0.5}
	for _, j := range jitters {
		t.Cols = append(t.Cols, fmt.Sprintf("%.0f%%", 100*j))
	}
	var cells []harness.Cell
	for _, gs := range []int{0, 8} {
		t.Rows = append(t.Rows, groupLabel(microN, gs))
		for _, j := range jitters {
			cfg := harness.PaperCluster(microN)
			cfg.CR.GroupSize = gs
			cfg.Storage.ShareJitter = j
			cells = append(cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second})
		}
	}
	results, err := g.R.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("figures: noise ablation: %w", err)
	}
	for ri := 0; ri < len(t.Rows); ri++ {
		row := make([]float64, len(jitters))
		for ci := range jitters {
			row[ci] = secs(results[ri*len(jitters)+ci].EffectiveDelay())
		}
		t.Cells = append(t.Cells, row)
	}
	t.Notes = append(t.Notes,
		"finding: a work-conserving server absorbs share imbalance; only non-work-conserving",
		"degradation (the Efficiency hook) reproduces the paper's 'significantly increase' concern")
	return t, nil
}
