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
func (g *Generator) Extensions() ([]*Table, error) {
	return tables(g.ExtensionLogging, g.ExtensionIncremental, g.ExtensionStaging,
		g.ExtensionFaultRecovery, g.ExtensionAvailability, g.ExtensionScalability)
}

// ExtensionLogging quantifies the failure-free cost of sender-based message
// logging on a communication-intensive workload — the overhead that makes
// uncoordinated/logging protocols unattractive on high-speed interconnects
// (Sections 1 and 4.3). The logging row's overhead is relative to the
// buffering row, so it is computed once both runs are in.
func (g *Generator) ExtensionLogging() (*Table, error) {
	t := &Table{
		Title:     "Extension (S4.3): message buffering vs sender-based logging, failure-free cost",
		Unit:      "(mixed)",
		ColHeader: "metric",
		RowHeader: "mode",
		Cols:      []string{"runtime s", "overhead %", "copied GB"},
		Rows:      []string{"buffering (deferral)", "sender-based logging"},
	}
	// 64 MB images, cr's default footprint, not the paper's 180 MB: the
	// extlogging golden and docs/figures.txt pin the table at this size.
	w := workload.CommGroups{
		N: microN, CommGroupSize: 8, Iters: 500,
		Chunk: 5 * sim.Millisecond, MsgBytes: 1 << 20, FootprintMB: 64,
	}
	t.Notes = append(t.Notes,
		"'copied': payload bytes held by each scheme across the run (one group checkpoint included)",
		"logging copies every payload always; buffering holds only cross-group traffic during the cycle")
	var runtimes [2]sim.Time
	_, err := g.fill("logging extension", t, len(t.Rows), func(i int) error {
		logging := i == 1
		cfg := harness.PaperCluster(microN)
		cfg.MPI.LogMessages = logging
		cfg.CR.GroupSize = 8
		// One group-based checkpoint mid-run, so the buffering row shows
		// how little the deferral approach actually copies.
		c, _, err := harness.Run(cfg, w, nil, 2*sim.Second)
		if err != nil {
			return err
		}
		var copied int64
		if logging {
			for r := 0; r < microN; r++ {
				copied += c.Job.Rank(r).Stats().BytesLogged
			}
		} else {
			reps, err := c.Coord.Reports()
			if err != nil {
				return err
			}
			_, _, copied = reps[0].BufferedTotals()
		}
		runtimes[i] = c.Job.FinishTime()
		t.Cells[i][0] = runtimes[i].Seconds()
		t.Cells[i][2] = float64(copied) / (1 << 30)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Cells[1][1] = 100 * float64(runtimes[1]-runtimes[0]) / float64(runtimes[0])
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
	modes := []struct {
		incr bool
		gs   int
	}{{false, 0}, {false, 8}, {true, 0}, {true, 8}}
	for _, mode := range modes {
		label := "full"
		if mode.incr {
			label = "incremental"
		}
		t.Rows = append(t.Rows, fmt.Sprintf("%s, %s", groupLabel(microN, mode.gs), label))
	}
	t.Notes = append(t.Notes,
		"incremental snapshots write only memory dirtied since the last checkpoint (1 MB/s dirty rate)")
	return g.fill("incremental extension", t, len(modes), func(i int) error {
		baseline, err := g.R.Baseline(harness.PaperCluster(microN), w)
		if err != nil {
			return err
		}
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = modes[i].gs
		cfg.CR.Incremental = modes[i].incr
		c, _, err := harness.Run(cfg, w, nil, 10*sim.Second, 60*sim.Second, 110*sim.Second)
		if err != nil {
			return err
		}
		reps, err := c.Coord.Reports()
		if err != nil {
			return err
		}
		t.Cells[i] = []float64{
			(c.Job.FinishTime() - baseline).Seconds(),
			reps[len(reps)-1].MeanIndividual().Seconds(),
		}
		return nil
	})
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
	modes := []struct {
		label   string
		gs      int
		storage tier.Mode
	}{
		{"direct, All(32)", 0, tier.ModeCentral},
		{"direct, Group(8)", 8, tier.ModeCentral},
		{"staged, All(32)", 0, tier.ModeLocal},
		{"staged, Group(8)", 8, tier.ModeLocal},
	}
	for _, mode := range modes {
		t.Rows = append(t.Rows, mode.label)
	}
	t.Notes = append(t.Notes,
		"staging trades a shorter stall for a durability gap; the paper's diskless clusters cannot use it at all")
	return g.fill("staging extension", t, len(modes), func(i int) error {
		cfg := harness.PaperCluster(microN)
		cfg.CR.GroupSize = modes[i].gs
		cfg.Tiers.Mode = modes[i].storage
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		t.Cells[i] = []float64{
			secs(res.EffectiveDelay()),
			secs(res.Total()),
			secs(res.Report.VulnerabilityWindow()),
		}
		return nil
	})
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
	for _, gs := range groupSizes {
		t.Rows = append(t.Rows, groupLabel(microN, gs))
	}
	t.Notes = append(t.Notes,
		"failure-free baseline ~45s; failures are exponential with identical seeds per cell",
		"Young's U-curve: too-frequent checkpoints waste time, too-rare ones lose work",
		"the protocols tie here because restartable runs use the polled (SCR-style) discipline,",
		"which quiesces all ranks before any group writes and so forfeits the pre-turn compute",
		"overlap; the overlap benefit is what Figures 3-7 measure under the signal protocol")
	return g.fill("fault-recovery extension", t, len(groupSizes)*len(intervals), func(i int) error {
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
	// Per-checkpoint cost for Young's formula: all ranks write their images
	// at the shared aggregate bandwidth (the regular-protocol cost model).
	cost := sim.Seconds(float64(microN) * 32 * (1 << 20) / cfg.Storage.AggregateBW)
	mtbfs := []sim.Time{20 * sim.Second, 60 * sim.Second}
	intervals := []sim.Time{4 * sim.Second, 8 * sim.Second, 16 * sim.Second}
	for _, iv := range intervals {
		t.Cols = append(t.Cols, fmt.Sprintf("%.0f", iv.Seconds()))
	}
	t.Cols = append(t.Cols, "Young opt")
	for _, mtbf := range mtbfs {
		t.Rows = append(t.Rows, fmt.Sprintf("%.0fs", mtbf.Seconds()))
	}
	t.Notes = append(t.Notes,
		"efficiency = failure-free baseline / wall time under exponential failures (identical seeds per cell)",
		"Young's optimum sqrt(2*cost*MTBF) predicts where each row peaks; shorter MTBF wants shorter intervals")
	return g.fill("availability extension", t, len(mtbfs)*len(intervals), func(i int) error {
		ri, ci := i/len(intervals), i%len(intervals)
		baseline, err := g.R.Baseline(cfg, w)
		if err != nil {
			return err
		}
		res, err := harness.RunScenario(cfg, w, fault.Scenario{MTBF: mtbfs[ri], Seed: 11}, intervals[ci], nil)
		if err != nil {
			return err
		}
		t.Cells[ri][ci] = baseline.Seconds() / res.Wall.Seconds()
		// The Young column is computed, not simulated: the row's first
		// simulation writes it.
		if ci == 0 {
			t.Cells[ri][len(intervals)] = model.OptimalInterval(cost, mtbfs[ri]).Seconds()
		}
		return nil
	})
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
	modes := []tier.Mode{tier.ModeCentral, tier.ModeBurst, tier.ModeRAM, tier.ModeHierarchy}
	for _, mode := range modes {
		label := string(mode)
		if mode.Has(tier.RAM) {
			label = fmt.Sprintf("%s (k=%d)", mode, tierZooConfig(mode).Tiers.ReplicaCount())
		}
		t.Rows = append(t.Rows, label)
	}
	t.Notes = append(t.Notes,
		"delay = (failure-free wall - baseline) / epochs committed; commit acks at the fastest durable tier",
		"recovery = crash-run wall minus failure-free wall for one crash at 17s; the plain crash leaves RAM",
		"replicas intact, so tiered rows read partner copies back over disjoint fabric links",
		"Young opt = sqrt(2*delay*MTBF) at MTBF 60s: cheaper acks shift the optimum toward shorter intervals")
	return g.fill("tiers extension", t, len(modes), func(i int) error {
		cfg := tierZooConfig(modes[i])
		// The baseline takes no checkpoints, so it is independent of the
		// storage mode; one central-mode run serves every row.
		base, err := g.R.Baseline(tierZooConfig(tier.ModeCentral), w)
		if err != nil {
			return err
		}
		ff, err := harness.RunScenario(cfg, w, fault.Scenario{}, interval, nil)
		if err != nil {
			return err
		}
		if ff.Checkpoints == 0 {
			return fmt.Errorf("%s: failure-free run committed no epochs", modes[i])
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
		t.Cells[i] = []float64{
			delay.Seconds(),
			(crash.Wall - ff.Wall).Seconds(),
			eff[0],
			eff[1],
			model.OptimalInterval(delay, 60*sim.Second).Seconds(),
		}
		return nil
	})
}

// protocolZoo lists the protocol zoo's members, as the cr.Config.Protocol
// spellings that select them: group-based blocking as the paper runs it
// (checkpoint group 8), whole-job blocking (the ICPP'06 baseline: the group
// protocol with one group), and uncoordinated checkpointing, which requires
// sender-based message logging.
var protocolZoo = []protocol.Kind{protocol.Group, protocol.WholeJob, protocol.Uncoordinated}

// protocolZooConfig builds the micro-cluster configuration for one member of
// the protocol zoo, and names its row.
func protocolZooConfig(kind protocol.Kind) (harness.ClusterConfig, string) {
	cfg := harness.PaperCluster(microN)
	cfg.CR.Protocol = kind
	cfg.CR.LocalSetup = 100 * sim.Millisecond
	cfg.MPI.LogMessages = kind == protocol.Uncoordinated
	switch kind {
	case protocol.Group:
		cfg.CR.GroupSize = 8
		return cfg, "group(8) blocking"
	case protocol.WholeJob:
		return cfg, "whole-job blocking"
	case protocol.Uncoordinated:
		return cfg, "uncoordinated+logging"
	}
	return cfg, string(kind)
}

// ExtensionProtocols compares the protocol zoo end to end on one
// restartable workload: failure-free checkpoint cost, and recovery behaviour
// under an identical injected crash, for each member. Each kind's overhead is measured against its own faithful baseline — the
// uncoordinated row's baseline already pays for message logging, so its
// overhead column isolates the checkpointing cost, while ExtensionLogging
// prices the logging tax itself.
func (g *Generator) ExtensionProtocols() (*Table, error) {
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
	for _, kind := range protocolZoo {
		_, label := protocolZooConfig(kind)
		t.Rows = append(t.Rows, label)
	}
	t.Notes = append(t.Notes,
		"per-kind baselines: the uncoordinated row is measured against a logging-enabled baseline",
		"recovery = crash-run wall minus failure-free wall for one crash at 17s (lost work + restart read-back)",
		"availability = failure-free baseline / crash-run wall; restartable runs use the polled discipline,",
		"so the blocking rows quiesce all ranks at the poll and their delays track the shared storage write")
	return g.fill("protocols extension", t, len(protocolZoo), func(i int) error {
		cfg, _ := protocolZooConfig(protocolZoo[i])
		base, err := g.R.Baseline(cfg, w)
		if err != nil {
			return err
		}
		ff, err := harness.RunScenario(cfg, w, fault.Scenario{}, interval, nil)
		if err != nil {
			return err
		}
		if ff.Checkpoints == 0 {
			return fmt.Errorf("%s: failure-free run committed no epochs", protocolZoo[i])
		}
		crash, err := harness.RunScenario(cfg, w, crashScn, interval, nil)
		if err != nil {
			return err
		}
		t.Cells[i] = []float64{
			(ff.Wall - base).Seconds() / float64(ff.Checkpoints),
			100 * float64(ff.Wall-base) / float64(base),
			(crash.Wall - ff.Wall).Seconds(),
			base.Seconds() / crash.Wall.Seconds(),
		}
		return nil
	})
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
	t.Rows = []string{"All(N)", "Group(4)"}
	groupSizes := []int{0, 4}
	t.Notes = append(t.Notes,
		"the regular protocol scales O(N) with the job size; group-based stays flat",
		"(each group of 4 still writes at full aggregate bandwidth while others compute)")
	return g.fill("scalability extension", t, len(groupSizes)*len(sizes), func(i int) error {
		ri, ci := i/len(sizes), i%len(sizes)
		n := sizes[ci]
		// Runtime must exceed the largest delay: N*180MB/140MBps.
		w := workload.CommGroups{
			N: n, CommGroupSize: 4, Iters: 40 + 14*n,
			Chunk: microChunk, FootprintMB: microFootprint,
		}
		cfg := harness.PaperCluster(n)
		cfg.CR.GroupSize = groupSizes[ri]
		res, err := g.R.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
		if err != nil {
			return err
		}
		t.Cells[ri][ci] = secs(res.EffectiveDelay())
		return nil
	})
}
