package gbcr

import (
	"slices"
	"testing"

	"gbcr/internal/figures"
	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// Each benchmark regenerates one figure or table from the paper's
// evaluation section and reports its headline quantity as a custom metric.
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The same data is printed as tables by `go run ./cmd/figures`. Each
// iteration uses a fresh figures.Generator so the baseline cache never
// carries over between iterations and the measured cost stays the full
// regeneration cost.

// gen runs one generator method on a fresh Generator and fails the
// benchmark on error.
func gen(b *testing.B, fn func(*figures.Generator) (*figures.Table, error)) *figures.Table {
	b.Helper()
	t, err := fn(figures.NewGenerator(0))
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// metric reads a labeled cell and fails the benchmark on a bad label.
func metric(b *testing.B, t *figures.Table, row, col string) float64 {
	b.Helper()
	v, err := t.Row(row)
	ci := slices.Index(t.Cols, col)
	if err != nil || ci < 0 {
		b.Fatalf("no cell (%q, %q) in %q: %v", row, col, t.Title, err)
	}
	return v[ci]
}

// BenchmarkFig1StorageBandwidth regenerates Figure 1: bandwidth per client
// against the number of concurrent clients on the 4-server PVFS2 model.
func BenchmarkFig1StorageBandwidth(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).Fig1)
	}
	b.ReportMetric(metric(b, t, "Bandwidth per Client", "1"), "MB/s/1client")
	b.ReportMetric(metric(b, t, "Bandwidth per Client", "32"), "MB/s/32clients")
	b.ReportMetric(metric(b, t, "Aggregated Throughput", "32"), "MB/s-aggregate")
}

// BenchmarkFig3GroupSize regenerates Figure 3: the communication-group
// micro-benchmark across checkpoint group sizes.
func BenchmarkFig3GroupSize(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).Fig3)
	}
	b.ReportMetric(metric(b, t, "Comm 8", "All(32)"), "s-delay-all")
	b.ReportMetric(metric(b, t, "Comm 8", "8"), "s-delay-group8")
}

// BenchmarkFig4Placement regenerates Figure 4: effective delay against the
// checkpoint issuance time relative to a global barrier.
func BenchmarkFig4Placement(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).Fig4)
	}
	b.ReportMetric(metric(b, t, "Effective Ckpt Delay", "15"), "s-far-from-barrier")
	b.ReportMetric(metric(b, t, "Effective Ckpt Delay", "55"), "s-near-barrier")
}

// BenchmarkFig5HPLDelay regenerates Figure 5: HPL effective delays at eight
// issuance points across checkpoint group sizes.
func BenchmarkFig5HPLDelay(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).Fig5)
	}
	b.ReportMetric(metric(b, t, "All(32)", "50"), "s-all-at-50s")
	b.ReportMetric(metric(b, t, "Group(4)", "50"), "s-group4-at-50s")
}

// BenchmarkFig6HPLSummary regenerates Figure 6: per-group-size mean/min/max
// of the Figure 5 data.
func BenchmarkFig6HPLSummary(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		g := figures.NewGenerator(0)
		f5, err := g.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		t = g.Fig6(f5)
	}
	b.ReportMetric(metric(b, t, "All(32)", "mean"), "s-mean-all")
	b.ReportMetric(metric(b, t, "Group(4)", "mean"), "s-mean-group4")
	b.ReportMetric(metric(b, t, "Individual(1)", "mean"), "s-mean-individual")
}

// BenchmarkFig7MotifMiner regenerates Figure 7: MotifMiner effective delays
// at four issuance points across checkpoint group sizes.
func BenchmarkFig7MotifMiner(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).Fig7)
	}
	b.ReportMetric(metric(b, t, "All(32)", "30"), "s-all-at-30s")
	b.ReportMetric(metric(b, t, "Group(4)", "30"), "s-group4-at-30s")
}

// BenchmarkPhaseBreakdown regenerates the Section 3.1 observation that
// storage access dominates the checkpoint delay.
func BenchmarkPhaseBreakdown(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).PhaseBreakdown)
	}
	b.ReportMetric(metric(b, t, "storage share", "All(32)"), "storage-share-regular")
}

// BenchmarkAblationHelper measures the Section 4.4 asynchronous-progress
// design: teardown latency with and without the helper thread.
func BenchmarkAblationHelper(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).AblationHelper)
	}
	b.ReportMetric(t.Cells[0][1], "s-teardown-helper-on")
	b.ReportMetric(t.Cells[1][1], "s-teardown-helper-off")
}

// BenchmarkAblationGroupFormation measures Section 4.1: static rank-order
// groups against dynamic communication-pattern groups.
func BenchmarkAblationGroupFormation(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).AblationGroupFormation)
	}
	b.ReportMetric(t.Cells[0][0], "s-delay-static")
	b.ReportMetric(t.Cells[1][0], "s-delay-dynamic")
}

// BenchmarkAblationConnCost measures Section 4.2: sensitivity of the delay
// to connection-management cost.
func BenchmarkAblationConnCost(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).AblationConnCost)
	}
	b.ReportMetric(t.Cells[1][0], "s-coordination-50us")
	b.ReportMetric(t.Cells[1][len(t.Cols)-1], "s-coordination-10ms")
}

// BenchmarkModelVsSim cross-checks the paper's analytic equations (Section
// 5) against the simulation: measured individual checkpoint time vs
// equation (3a) for a group-based checkpoint.
func BenchmarkModelVsSim(b *testing.B) {
	var meas, pred float64
	for i := 0; i < b.N; i++ {
		cfg := harness.PaperCluster(32)
		cfg.CR.GroupSize = 8
		cfg.CR.LocalSetup = 0
		w := workload.CommGroups{N: 32, CommGroupSize: 8, Iters: 600,
			Chunk: 100 * sim.Millisecond, FootprintMB: 180}
		res, err := harness.MeasureObserved(cfg, w, 10*sim.Second, nil)
		if err != nil {
			b.Fatal(err)
		}
		meas = res.Report.MeanIndividual().Seconds()
		// Equation (3a): the group's 8 writers share the aggregate
		// throughput, each capped at the client rate.
		pred = 180 << 20 / min(cfg.Storage.AggregateBW/8, cfg.Storage.ClientBW)
	}
	b.ReportMetric(meas, "s-measured-individual")
	b.ReportMetric(pred, "s-eq3a-predicted")
	b.ReportMetric(100*(meas-pred)/pred, "pct-model-error")
}

// BenchmarkExtensionLogging quantifies the failure-free cost of the
// sender-based message-logging alternative (Section 4.3).
func BenchmarkExtensionLogging(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).ExtensionLogging)
	}
	b.ReportMetric(t.Cells[1][1], "pct-logging-overhead")
	b.ReportMetric(t.Cells[1][2], "GB-logged")
}

// BenchmarkExtensionIncremental measures the Section 8 future-work
// combination: group-based plus incremental checkpointing.
func BenchmarkExtensionIncremental(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).ExtensionIncremental)
	}
	b.ReportMetric(t.Cells[0][0], "s-cumulative-all-full")
	b.ReportMetric(t.Cells[3][0], "s-cumulative-group-incremental")
}

// BenchmarkExtensionStaging measures the Section 2.1 local-disk staging
// trade-off: stall time vs durability window.
func BenchmarkExtensionStaging(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).ExtensionStaging)
	}
	b.ReportMetric(t.Cells[2][0], "s-staged-delay")
	b.ReportMetric(t.Cells[2][2], "s-vulnerability-window")
}

// BenchmarkExtensionFaultRecovery runs jobs to completion under injected
// failures across checkpoint intervals (Young's U-curve, end to end).
func BenchmarkExtensionFaultRecovery(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).ExtensionFaultRecovery)
	}
	b.ReportMetric(t.Cells[1][0], "s-wall-interval5")
	b.ReportMetric(t.Cells[1][2], "s-wall-interval20")
}

// BenchmarkExtensionScalability sweeps the job size at fixed storage
// throughput: the regular protocol's delay is O(N), group-based stays flat.
func BenchmarkExtensionScalability(b *testing.B) {
	var t *figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(b, (*figures.Generator).ExtensionScalability)
	}
	b.ReportMetric(t.Cells[0][len(t.Cols)-1], "s-delay-all-256ranks")
	b.ReportMetric(t.Cells[1][len(t.Cols)-1], "s-delay-group4-256ranks")
}
