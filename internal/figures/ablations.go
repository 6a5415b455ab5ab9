package figures

import (
	"fmt"

	"gbcr/internal/harness"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// Ablations runs the design-choice studies: the asynchronous-progress helper
// thread (Section 4.4), static vs dynamic group formation (Section 4.1),
// connection-management cost sensitivity (Section 4.2), and the phase
// breakdown backing the paper's ">95% storage time" claim (Section 3.1).
func (g *Generator) Ablations() ([]*Table, error) {
	return tables(g.AblationHelper, g.AblationGroupFormation, g.AblationConnCost, g.AblationNoise, g.PhaseBreakdown)
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
		Rows:      []string{"helper on (100ms)", "helper off"},
	}
	// Checkpoint groups of 4 inside communication groups of 8: members hold
	// connections to out-of-group peers that compute in 2-second chunks, so
	// the flush handshake depends on passive-side progress.
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 40,
		Chunk: 2 * sim.Second, FootprintMB: microFootprint,
	}
	helper := []bool{true, false}
	return g.fill("helper ablation", t, len(helper), func(i int) error {
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = 4
		cfg.CR.HelperEnabled = helper[i]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		var teardown sim.Time
		for _, rec := range res.Report.Records {
			teardown += rec.TeardownDone - rec.GoAt
		}
		teardown /= sim.Time(len(res.Report.Records))
		t.Cells[i] = []float64{secs(res.EffectiveDelay()), secs(teardown)}
		return nil
	})
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
		Rows:      []string{"static (rank order)", "dynamic (comm pattern)"},
	}
	const n = microN
	w := stridedPairs{n: n, iters: 500, chunk: microChunk, footprintMB: microFootprint}
	dynamic := []bool{false, true}
	return g.fill("group-formation ablation", t, len(dynamic), func(i int) error {
		cfg := harness.PaperCluster(n)
		cfg.CR.GroupSize = 2
		cfg.CR.Dynamic = dynamic[i]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		t.Cells[i][0] = secs(res.EffectiveDelay())
		return nil
	})
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
	j.LaunchAll(func(e *mpi.Env) {
		world := e.World()
		partner := (e.Rank() + w.n/2) % w.n
		for it := 0; it < w.iters; it++ {
			e.Compute(w.chunk)
			e.SendrecvSize(world, partner, 1, 1024, partner, 1)
		}
	})
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
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 900,
		Chunk: microChunk, FootprintMB: microFootprint,
	}
	oobs := []sim.Time{50 * sim.Microsecond, 150 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond}
	for _, oob := range oobs {
		t.Cols = append(t.Cols, oob.String())
	}
	return g.fill("connection-cost ablation", t, len(oobs), func(i int) error {
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = 8
		cfg.Fabric.OOBLatency = oobs[i]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		var coord sim.Time
		for _, rec := range res.Report.Records {
			coord += rec.CoordinationTime()
		}
		coord /= sim.Time(len(res.Report.Records))
		t.Cells[0][i] = secs(res.EffectiveDelay())
		t.Cells[1][i] = secs(coord)
		return nil
	})
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
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 900,
		Chunk: microChunk, FootprintMB: microFootprint,
	}
	groupSizes := []int{0, 8, 2}
	for _, gs := range groupSizes {
		t.Cols = append(t.Cols, groupLabel(microN, gs))
	}
	return g.fill("phase breakdown", t, len(groupSizes), func(i int) error {
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = groupSizes[i]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		t.Cells[0][i] = res.Report.StorageShare()
		return nil
	})
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
	groupSizes := []int{0, 8}
	for _, gs := range groupSizes {
		t.Rows = append(t.Rows, groupLabel(microN, gs))
	}
	t.Notes = append(t.Notes,
		"finding: a work-conserving server absorbs share imbalance; only non-work-conserving",
		"degradation (the Efficiency hook) reproduces the paper's 'significantly increase' concern")
	return g.fill("noise ablation", t, len(groupSizes)*len(jitters), func(i int) error {
		ri, ci := i/len(jitters), i%len(jitters)
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = groupSizes[ri]
		cfg.Storage.ShareJitter = jitters[ci]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		t.Cells[ri][ci] = secs(res.EffectiveDelay())
		return nil
	})
}
