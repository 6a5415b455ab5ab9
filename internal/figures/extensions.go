package figures

import (
	"fmt"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/model"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// Extensions runs the studies beyond the paper's figures: the message
// logging alternative it argues against (Section 4.3 / related work) and
// the incremental-checkpointing combination it names as future work.
func (g *Generator) Extensions() (*AblationReport, error) {
	rep := &AblationReport{}
	for _, gen := range []func() (*Table, error){
		g.ExtensionLogging,
		g.ExtensionIncremental,
		g.ExtensionStaging,
		g.ExtensionFaultRecovery,
		g.ExtensionAvailability,
		g.ExtensionScalability,
	} {
		t, err := gen()
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// ExtensionLogging quantifies the failure-free cost of sender-based message
// logging on a communication-intensive workload — the overhead that makes
// uncoordinated/logging protocols unattractive on high-speed interconnects
// (Sections 1 and 4.3). The logging row's overhead is relative to the
// buffering row, so the two runs stay sequential.
func (g *Generator) ExtensionLogging() (*Table, error) {
	t := &Table{
		Title:     "Extension (S4.3): message buffering vs sender-based logging, failure-free cost",
		Unit:      "(mixed)",
		ColHeader: "metric",
		RowHeader: "mode",
		Cols:      []string{"runtime s", "overhead %", "copied GB"},
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 500,
		Chunk: 5 * sim.Millisecond, MsgBytes: 1 << 20, FootprintMB: microFootprint,
	}
	var base sim.Time
	for _, logging := range []bool{false, true} {
		cfg := harness.PaperCluster(microN)
		cfg.MPI.LogMessages = logging
		cfg.CR.GroupSize = 8
		c, err := harness.NewCluster(cfg)
		if err != nil {
			return nil, fmt.Errorf("figures: logging extension: %w", err)
		}
		if _, err := w.Launch(c.Job); err != nil {
			return nil, fmt.Errorf("figures: logging extension: %w", err)
		}
		// One group-based checkpoint mid-run, so the buffering row shows
		// how little the deferral approach actually copies.
		c.Coord.ScheduleCheckpoint(2 * sim.Second)
		if err := c.K.Run(); err != nil {
			return nil, fmt.Errorf("figures: logging extension (logging=%v): %w", logging, err)
		}
		runtime := c.Job.FinishTime()
		var copied int64
		if logging {
			for i := 0; i < microN; i++ {
				copied += c.Job.Rank(i).Stats().BytesLogged
			}
		} else {
			reps, err := c.Coord.Reports()
			if err != nil {
				return nil, fmt.Errorf("figures: logging extension: %w", err)
			}
			_, _, copied = reps[0].BufferedTotals()
		}
		label := "buffering (deferral)"
		overhead := 0.0
		if logging {
			label = "sender-based logging"
			overhead = 100 * float64(runtime-base) / float64(base)
		} else {
			base = runtime
		}
		t.Rows = append(t.Rows, label)
		t.Cells = append(t.Cells, []float64{
			runtime.Seconds(), overhead, float64(copied) / (1 << 30),
		})
	}
	t.Notes = append(t.Notes,
		"'copied': payload bytes held by each scheme across the run (one group checkpoint included)",
		"logging copies every payload always; buffering holds only cross-group traffic during the cycle")
	return t, nil
}

// ExtensionIncremental combines group-based checkpointing with incremental
// checkpointing (future work in Section 8, cf. TICK): three periodic
// checkpoints, comparing the cumulative effective delay of the four
// protocol combinations, scheduled concurrently.
func (g *Generator) ExtensionIncremental() (*Table, error) {
	t := &Table{
		Title:     "Extension (S8): group-based x incremental checkpointing, 3 checkpoints",
		Unit:      "s",
		ColHeader: "metric",
		RowHeader: "protocol",
		Cols:      []string{"cumulative delay", "ckpt-3 mean individual"},
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 1800,
		Chunk: 100 * sim.Millisecond, FootprintMB: microFootprint,
	}
	baseline, err := g.R.Baseline(harness.PaperCluster(microN), w)
	if err != nil {
		return nil, fmt.Errorf("figures: incremental extension: %w", err)
	}
	modes := []struct {
		incr bool
		gs   int
	}{{false, 0}, {false, 8}, {true, 0}, {true, 8}}
	t.Rows = make([]string, len(modes))
	t.Cells = make([][]float64, len(modes))
	err = g.R.ForEach(len(modes), func(i int) error {
		mode := modes[i]
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = mode.gs
		cfg.CR.DefaultFootprint = microFootprint << 20
		cfg.CR.Incremental = mode.incr
		c, err := harness.NewCluster(cfg)
		if err != nil {
			return err
		}
		if _, err := w.Launch(c.Job); err != nil {
			return err
		}
		for _, at := range []sim.Time{10 * sim.Second, 60 * sim.Second, 110 * sim.Second} {
			c.Coord.ScheduleCheckpoint(at)
		}
		if err := c.K.Run(); err != nil {
			return err
		}
		reps, err := c.Coord.Reports()
		if err != nil {
			return err
		}
		last := reps[len(reps)-1]
		label := "full"
		if mode.incr {
			label = "incremental"
		}
		t.Rows[i] = fmt.Sprintf("%s, %s", groupLabel(microN, mode.gs), label)
		t.Cells[i] = []float64{
			(c.Job.FinishTime() - baseline).Seconds(),
			last.MeanIndividual().Seconds(),
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("figures: incremental extension: %w", err)
	}
	t.Notes = append(t.Notes,
		"incremental snapshots write only memory dirtied since the last checkpoint (1 MB/s dirty rate)")
	return t, nil
}

// ExtensionStaging quantifies the local-disk staging alternative the paper
// rejects in Section 2.1 (tier.ModeLocal): the delay collapses to the
// local-write time, but until the background drains finish the only copy of
// the checkpoint sits on the node that took it — a node loss in that window
// falls back to the previous checkpoint (and diskless nodes cannot stage at
// all).
func (g *Generator) ExtensionStaging() (*Table, error) {
	t := &Table{
		Title:     "Extension (S2.1): direct central writes vs local-disk staging (60 MB/s SATA)",
		Unit:      "s",
		ColHeader: "metric",
		RowHeader: "mode",
		Cols:      []string{"effective delay", "total ckpt", "vulnerability window"},
	}
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 900,
		Chunk: microChunk, FootprintMB: microFootprint,
	}
	var cells []harness.Cell
	for _, mode := range []struct {
		label   string
		gs      int
		storage tier.Mode
	}{
		{"direct, All(32)", 0, tier.ModeCentral},
		{"direct, Group(8)", 8, tier.ModeCentral},
		{"staged, All(32)", 0, tier.ModeLocal},
		{"staged, Group(8)", 8, tier.ModeLocal},
	} {
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = mode.gs
		cfg.Tiers.Mode = mode.storage
		cells = append(cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second})
		t.Rows = append(t.Rows, mode.label)
	}
	results, err := g.R.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("figures: staging extension: %w", err)
	}
	for _, res := range results {
		t.Cells = append(t.Cells, []float64{
			secs(res.EffectiveDelay()),
			secs(res.Total()),
			secs(res.Report.VulnerabilityWindow()),
		})
	}
	t.Notes = append(t.Notes,
		"staging trades a shorter stall for a durability gap; the paper's diskless clusters cannot use it at all")
	return t, nil
}

// ExtensionFaultRecovery is the end-to-end payoff experiment: run a job to
// completion under exponentially-distributed failures, checkpointing every
// interval, and compare total wall time across intervals for the regular and
// group-based protocols. Cheaper checkpoints (group-based) both lower the
// curve and move its optimum toward shorter intervals — the system-level
// consequence Young's formula predicts from the delay reduction. The 2×4
// grid of fault-injection runs is scheduled concurrently.
func (g *Generator) ExtensionFaultRecovery() (*Table, error) {
	t := &Table{
		Title:     "Extension: wall time to completion under failures (MTBF 60s) vs checkpoint interval",
		Unit:      "s",
		ColHeader: "interval (s)",
		RowHeader: "protocol",
	}
	w := workload.Ring{N: microN, Iters: 900, Chunk: 50 * sim.Millisecond, FootprintMB: 32}
	intervals := []sim.Time{5 * sim.Second, 10 * sim.Second, 20 * sim.Second, 40 * sim.Second}
	for _, iv := range intervals {
		t.Cols = append(t.Cols, fmt.Sprintf("%.0f", iv.Seconds()))
	}
	groupSizes := []int{0, 4}
	t.Cells = make([][]float64, len(groupSizes))
	for _, gs := range groupSizes {
		t.Rows = append(t.Rows, groupLabel(microN, gs))
	}
	for ri := range groupSizes {
		t.Cells[ri] = make([]float64, len(intervals))
	}
	err := g.R.ForEach(len(groupSizes)*len(intervals), func(i int) error {
		ri, ci := i/len(intervals), i%len(intervals)
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = groupSizes[ri]
		cfg.CR.LocalSetup = 100 * sim.Millisecond
		res, err := harness.RunScenario(cfg, w, fault.Scenario{MTBF: sim.Minute, Seed: 11}, intervals[ci], nil)
		if err != nil {
			return err
		}
		t.Cells[ri][ci] = res.Wall.Seconds()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("figures: fault-recovery extension: %w", err)
	}
	t.Notes = append(t.Notes,
		"failure-free baseline ~45s; failures are exponential with identical seeds per cell",
		"Young's U-curve: too-frequent checkpoints waste time, too-rare ones lose work",
		"the protocols tie here because restartable runs use the polled (SCR-style) discipline,",
		"which quiesces all ranks before any group writes and so forfeits the pre-turn compute",
		"overlap; the overlap benefit is what Figures 3-7 measure under the signal protocol")
	return t, nil
}

// ExtensionAvailability sweeps machine reliability against checkpoint
// frequency: for each MTBF, a restartable job runs to completion under the
// fault subsystem's stochastic failure process at several checkpoint
// intervals, and the cell reports efficiency — failure-free wall time over
// achieved wall time. The last column is Young's predicted optimal interval
// for that MTBF (sqrt(2·cost·MTBF) from internal/model), the cross-check:
// the empirical efficiency maximum should sit near it, and does.
func (g *Generator) ExtensionAvailability() (*Table, error) {
	t := &Table{
		Title:     "Extension: efficiency (baseline/wall) vs MTBF vs checkpoint interval",
		Unit:      "(fraction; last col s)",
		ColHeader: "interval (s)",
		RowHeader: "MTBF",
	}
	w := workload.Ring{N: microN, Iters: 450, Chunk: 50 * sim.Millisecond, FootprintMB: 32}
	cfg := harness.PaperCluster(microN)
	cfg.CR.LocalSetup = 100 * sim.Millisecond
	baseline, err := g.R.Baseline(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("figures: availability extension: %w", err)
	}
	// Per-checkpoint cost for Young's formula: all ranks write their images
	// at the shared aggregate bandwidth (the regular-protocol cost model).
	cost := sim.Seconds(float64(microN) * 32 * (1 << 20) / cfg.Storage.AggregateBW)
	mtbfs := []sim.Time{20 * sim.Second, 60 * sim.Second}
	intervals := []sim.Time{4 * sim.Second, 8 * sim.Second, 16 * sim.Second}
	for _, iv := range intervals {
		t.Cols = append(t.Cols, fmt.Sprintf("%.0f", iv.Seconds()))
	}
	t.Cols = append(t.Cols, "Young opt")
	t.Cells = make([][]float64, len(mtbfs))
	for ri, mtbf := range mtbfs {
		t.Rows = append(t.Rows, fmt.Sprintf("%.0fs", mtbf.Seconds()))
		t.Cells[ri] = make([]float64, len(intervals)+1)
		t.Cells[ri][len(intervals)] = model.OptimalInterval(cost, mtbf).Seconds()
	}
	err = g.R.ForEach(len(mtbfs)*len(intervals), func(i int) error {
		ri, ci := i/len(intervals), i%len(intervals)
		scn := fault.Scenario{MTBF: mtbfs[ri], Seed: 11}
		cell := harness.PaperCluster(microN)
		cell.CR.LocalSetup = 100 * sim.Millisecond
		res, err := harness.RunScenario(cell, w, scn, intervals[ci], nil)
		if err != nil {
			return err
		}
		t.Cells[ri][ci] = baseline.Seconds() / res.Wall.Seconds()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("figures: availability extension: %w", err)
	}
	t.Notes = append(t.Notes,
		"efficiency = failure-free baseline / wall time under exponential failures (identical seeds per cell)",
		"Young's optimum sqrt(2*cost*MTBF) predicts where each row peaks; shorter MTBF wants shorter intervals")
	return t, nil
}

// tierZooConfig builds the micro-cluster configuration for one storage mode
// of the multi-tier comparison.
func tierZooConfig(mode tier.Mode) harness.ClusterConfig {
	cfg := harness.PaperCluster(microN)
	cfg.CR.LocalSetup = 100 * sim.Millisecond
	cfg.Tiers.Mode = mode
	return cfg
}

// ExtensionTiers prices the multi-tier checkpoint hierarchy end to end: for
// each storage mode it reports the failure-free per-checkpoint delay (now set
// by the fastest durable tier, not the central service), the recovery time
// for one crash (restart read-back comes from the fastest tier holding
// intact copies), the completion efficiency under stochastic failures at two
// machine reliabilities, and Young's predicted optimal interval from the
// measured per-checkpoint cost — cheaper acks move the optimum toward
// shorter intervals, which is the system-level payoff of the hierarchy.
func (g *Generator) ExtensionTiers() (*Table, error) {
	t := &Table{
		Title:     "Extension: multi-tier checkpoint storage — delay, recovery, efficiency by tier (ring, 32 ranks)",
		Unit:      "(mixed)",
		ColHeader: "metric",
		RowHeader: "storage",
		Cols:      []string{"ckpt delay s", "recovery s", "eff @MTBF 20s", "eff @MTBF 60s", "Young opt s"},
	}
	w := workload.Ring{N: microN, Iters: 450, Chunk: 50 * sim.Millisecond, FootprintMB: 32}
	const interval = 8 * sim.Second
	// The crash lands after every mode's first epoch is durable; the tiered
	// rows commit at RAM/burst speed, so all rows restart from a committed
	// line and the column isolates lost work plus the tier's read-back.
	crashScn, err := fault.Parse("crash@17s;seed=11")
	if err != nil {
		return nil, fmt.Errorf("figures: tiers extension: %w", err)
	}
	// The baseline takes no checkpoints, so it is independent of the storage
	// mode; one central-mode run serves every row.
	base, err := g.R.Baseline(tierZooConfig(tier.ModeCentral), w)
	if err != nil {
		return nil, fmt.Errorf("figures: tiers extension: %w", err)
	}
	modes := []tier.Mode{tier.ModeCentral, tier.ModeBurst, tier.ModeRAM, tier.ModeHierarchy}
	t.Rows = make([]string, len(modes))
	t.Cells = make([][]float64, len(modes))
	err = g.R.ForEach(len(modes), func(i int) error {
		mode := modes[i]
		cfg := tierZooConfig(mode)
		ff, err := harness.RunScenario(cfg, w, fault.Scenario{}, interval, nil)
		if err != nil {
			return err
		}
		if ff.Checkpoints == 0 {
			return fmt.Errorf("%s: failure-free run committed no epochs", mode)
		}
		crash, err := harness.RunScenario(cfg, w, crashScn, interval, nil)
		if err != nil {
			return err
		}
		var eff [2]float64
		for mi, mtbf := range []sim.Time{20 * sim.Second, 60 * sim.Second} {
			res, err := harness.RunScenario(cfg, w, fault.Scenario{MTBF: mtbf, Seed: 11}, interval, nil)
			if err != nil {
				return err
			}
			eff[mi] = base.Seconds() / res.Wall.Seconds()
		}
		delay := (ff.Wall - base) / sim.Time(ff.Checkpoints)
		t.Rows[i] = string(mode)
		if mode.HasRAM() {
			t.Rows[i] = fmt.Sprintf("%s (k=%d)", mode, cfg.Tiers.ReplicaCount())
		}
		t.Cells[i] = []float64{
			delay.Seconds(),
			(crash.Wall - ff.Wall).Seconds(),
			eff[0],
			eff[1],
			model.OptimalInterval(delay, 60*sim.Second).Seconds(),
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("figures: tiers extension: %w", err)
	}
	t.Notes = append(t.Notes,
		"delay = (failure-free wall - baseline) / epochs committed; commit acks at the fastest durable tier",
		"recovery = crash-run wall minus failure-free wall for one crash at 17s; the plain crash leaves RAM",
		"replicas intact, so tiered rows read partner copies back over disjoint fabric links",
		"Young opt = sqrt(2*delay*MTBF) at MTBF 60s: cheaper acks shift the optimum toward shorter intervals")
	return t, nil
}

// protocolZooConfig builds the micro-cluster configuration for one member of
// the protocol zoo: group-based blocking as the paper runs it (checkpoint
// group 8), whole-job blocking (the ICPP'06 baseline), and uncoordinated
// checkpointing, which requires sender-based message logging.
func protocolZooConfig(kind protocol.Kind) harness.ClusterConfig {
	cfg := harness.PaperCluster(microN)
	cfg.CR.Protocol = kind
	cfg.CR.LocalSetup = 100 * sim.Millisecond
	switch kind {
	case protocol.Group:
		cfg.CR.GroupSize = 8
	case protocol.WholeJob:
		cfg.CR.GroupSize = 0
	case protocol.Uncoordinated:
		cfg.CR.GroupSize = 0
		cfg.MPI.LogMessages = true
	}
	return cfg
}

// ExtensionProtocolsFor compares the protocol zoo end to end on one
// restartable workload: failure-free checkpoint cost, and recovery behaviour
// under an identical injected crash, for each of the given kinds
// (cmd/figures -protocol narrows the run this way). Each
// kind's overhead is measured against its own faithful baseline — the
// uncoordinated row's baseline already pays for message logging, so its
// overhead column isolates the checkpointing cost, while ExtensionLogging
// prices the logging tax itself.
func (g *Generator) ExtensionProtocolsFor(kinds []protocol.Kind) (*Table, error) {
	t := &Table{
		Title:     "Extension: protocol zoo — failure-free cost and crash recovery (ring, 32 ranks)",
		Unit:      "(mixed)",
		ColHeader: "metric",
		RowHeader: "protocol",
		Cols:      []string{"ckpt delay s", "overhead %", "recovery s", "availability"},
	}
	w := workload.Ring{N: microN, Iters: 450, Chunk: 50 * sim.Millisecond, FootprintMB: 32}
	const interval = 8 * sim.Second
	// The crash lands after every kind's first epoch is durable (the 1 GB of
	// images takes ~7.3 s at 140 MB/s from the 8 s request), so each protocol
	// restarts from a committed line rather than from scratch.
	crashScn, err := fault.Parse("crash@17s;seed=11")
	if err != nil {
		return nil, fmt.Errorf("figures: protocols extension: %w", err)
	}
	t.Rows = make([]string, len(kinds))
	t.Cells = make([][]float64, len(kinds))
	err = g.R.ForEach(len(kinds), func(i int) error {
		kind := kinds[i]
		cfg := protocolZooConfig(kind)
		base, err := g.R.Baseline(cfg, w)
		if err != nil {
			return err
		}
		ff, err := harness.RunScenario(cfg, w, fault.Scenario{}, interval, nil)
		if err != nil {
			return err
		}
		if ff.Checkpoints == 0 {
			return fmt.Errorf("%s: failure-free run committed no epochs", kind)
		}
		crash, err := harness.RunScenario(cfg, w, crashScn, interval, nil)
		if err != nil {
			return err
		}
		switch kind {
		case protocol.Group:
			t.Rows[i] = "group(8) blocking"
		case protocol.WholeJob:
			t.Rows[i] = "whole-job blocking"
		case protocol.Uncoordinated:
			t.Rows[i] = "uncoordinated+logging"
		default:
			t.Rows[i] = string(kind)
		}
		t.Cells[i] = []float64{
			(ff.Wall - base).Seconds() / float64(ff.Checkpoints),
			100 * float64(ff.Wall-base) / float64(base),
			(crash.Wall - ff.Wall).Seconds(),
			base.Seconds() / crash.Wall.Seconds(),
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("figures: protocols extension: %w", err)
	}
	t.Notes = append(t.Notes,
		"per-kind baselines: the uncoordinated row is measured against a logging-enabled baseline",
		"recovery = crash-run wall minus failure-free wall for one crash at 17s (lost work + restart read-back)",
		"availability = failure-free baseline / crash-run wall; restartable runs use the polled discipline,",
		"so the blocking rows quiesce all ranks at the poll and their delays track the shared storage write")
	return t, nil
}

// ExtensionScalability projects the paper's future-work question — behaviour
// on larger platforms — by sweeping the job size at fixed storage
// throughput: the regular protocol's delay grows linearly with N (the
// storage bottleneck), while a fixed checkpoint group size keeps each
// process's delay constant on overlap-friendly workloads. The 32–256 rank
// cells run concurrently; this sweep is the package's heaviest and gains
// the most from the worker pool.
func (g *Generator) ExtensionScalability() (*Table, error) {
	t := &Table{
		Title:     "Extension (S8): effective delay vs job size (fixed 140 MB/s storage, comm group 4)",
		Unit:      "s",
		ColHeader: "ranks",
		RowHeader: "protocol",
	}
	sizes := []int{32, 64, 128, 256}
	for _, n := range sizes {
		t.Cols = append(t.Cols, fmt.Sprint(n))
	}
	var cells []harness.Cell
	for _, mode := range []struct {
		label string
		gs    int
	}{{"All(N)", 0}, {"Group(4)", 4}} {
		t.Rows = append(t.Rows, mode.label)
		for _, n := range sizes {
			// Runtime must exceed the largest delay: N*180MB/140MBps.
			iters := 40 + 14*n
			w := workload.CommGroups{
				N: n, CommGroupSize: 4, Iters: iters,
				Chunk: microChunk, FootprintMB: microFootprint,
			}
			cfg := harness.PaperCluster(n)
			cfg.CR.GroupSize = mode.gs
			cells = append(cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second})
		}
	}
	results, err := g.R.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("figures: scalability extension: %w", err)
	}
	for ri := 0; ri < len(t.Rows); ri++ {
		row := make([]float64, len(sizes))
		for ci := range sizes {
			row[ci] = secs(results[ri*len(sizes)+ci].EffectiveDelay())
		}
		t.Cells = append(t.Cells, row)
	}
	t.Notes = append(t.Notes,
		"the regular protocol scales O(N) with the job size; group-based stays flat",
		"(each group of 4 still writes at full aggregate bandwidth while others compute)")
	return t, nil
}
