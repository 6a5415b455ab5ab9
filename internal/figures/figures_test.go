package figures

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
	hplPkg "gbcr/internal/workload/hpl"
)

// These tests regenerate the paper's figures and assert their *shape*: who
// wins, by roughly what factor, and where the crossovers fall. Absolute
// values are the simulation's, not the authors' testbed's.

// tg is shared across the shape tests so baselines memoized by one figure
// are reused by the next, exactly as cmd/figures does.
var tg = NewGenerator(0)

func mustT(t *testing.T, fn func() (*Table, error)) *Table {
	t.Helper()
	tb, err := fn()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tb
}

func mustRow(t *testing.T, tb *Table, name string) []float64 {
	t.Helper()
	v, err := tb.Row(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustCell(t *testing.T, tb *Table, row, col string) float64 {
	t.Helper()
	ci := slices.Index(tb.Cols, col)
	if ci < 0 {
		t.Fatalf("no column %q in %q", col, tb.Title)
	}
	return mustRow(t, tb, row)[ci]
}

func TestFig1Shape(t *testing.T) {
	f := mustT(t, tg.Fig1)
	per := mustRow(t, f, "Bandwidth per Client")
	agg := mustRow(t, f, "Aggregated Throughput")
	// Single client is link-limited near 115 MB/s (paper Figure 1).
	if per[0] < 110 || per[0] > 120 {
		t.Fatalf("1 client: %.1f MB/s", per[0])
	}
	// Per-client bandwidth collapses monotonically.
	for i := 1; i < len(per); i++ {
		if per[i] >= per[i-1] {
			t.Fatalf("per-client bandwidth not decreasing: %v", per)
		}
	}
	// Aggregate plateaus near 140 MB/s.
	for i := 1; i < len(agg); i++ {
		if agg[i] < 130 || agg[i] > 142 {
			t.Fatalf("aggregate off the ~140 MB/s plateau: %v", agg)
		}
	}
	// The paper's 32-client figure: ~4.38 MB/s per client.
	if got := mustCell(t, f, "Bandwidth per Client", "32"); got < 3.9 || got > 4.8 {
		t.Fatalf("32 clients: %.2f MB/s per client, paper ~4.38", got)
	}
}

func TestFig3Shape(t *testing.T) {
	f := mustT(t, tg.Fig3)
	// Halving the checkpoint group halves the delay while it covers the
	// communication group (embarrassingly parallel row shows it cleanly).
	ep := mustRow(t, f, "Embar. Parallel")
	for i := 1; i < len(ep); i++ {
		ratio := ep[i-1] / ep[i]
		if ratio < 1.7 || ratio > 2.4 {
			t.Fatalf("EP row not halving: %v", ep)
		}
	}
	// Below the communication group size the delay flattens (comm 16 row
	// at checkpoint groups 8 and 4).
	c16 := mustRow(t, f, "Comm 16")
	if c16[2] > c16[1]*1.15 || c16[3] > c16[1]*1.25 {
		t.Fatalf("comm-16 row should flatten below group 16: %v", c16)
	}
	// And at the smallest group sizes it rises again (the paper: "or even
	// increases when the checkpoint group size is very small").
	if !(c16[4] > c16[2]) {
		t.Fatalf("comm-16 row should rise at group 2: %v", c16)
	}
	// Regular checkpointing matches eq(2a): 32*180MB/140MB/s ~ 41s.
	if all := mustCell(t, f, "Comm 8", "All(32)"); all < 40 || all > 46 {
		t.Fatalf("All(32) delay %.1f, want ~41-43s", all)
	}
}

func TestFig4Shape(t *testing.T) {
	f := mustT(t, tg.Fig4)
	eff := mustRow(t, f, "Effective Ckpt Delay")
	ind := mustRow(t, f, "Individual Ckpt Time")
	tot := mustRow(t, f, "Total Ckpt Time")
	for i := range eff {
		// Section 5: individual <= effective <= total (small slack for
		// coordination noise).
		if eff[i] < ind[i]-0.5 || eff[i] > tot[i]+0.5 {
			t.Fatalf("point %d: effective %.1f outside [%.1f, %.1f]",
				i, eff[i], ind[i], tot[i])
		}
	}
	// Delay grows as the issuance time approaches the 60 s barrier
	// (columns 15..55) and resets after it.
	if !(eff[4] > eff[0]*2) {
		t.Fatalf("no ramp toward the barrier: %v", eff)
	}
	if !(eff[5] < eff[4]/2) {
		t.Fatalf("no reset after the barrier: %v", eff)
	}
}

func TestFig5And6Shape(t *testing.T) {
	f5 := mustT(t, tg.Fig5)
	all := mustRow(t, f5, "All(32)")
	g4 := mustRow(t, f5, "Group(4)")
	g1 := mustRow(t, f5, "Individual(1)")
	// Group(4) wins at every time point; Individual(1) never beats it.
	for i := range all {
		if g4[i] >= all[i] {
			t.Fatalf("point %d: group 4 (%.1f) not below All (%.1f)", i, g4[i], all[i])
		}
		if g1[i] < g4[i] {
			t.Fatalf("point %d: group 1 (%.1f) beats group 4 (%.1f)", i, g1[i], g4[i])
		}
	}
	// Headline: a large reduction exists (paper: up to 78%).
	pct, _, _ := maxReduction(f5)
	if pct < 60 || pct > 95 {
		t.Fatalf("max reduction %.0f%%, paper reports 78%%", pct)
	}
	// Average reductions land in the paper's band (37/46/46/35 for
	// 2/4/8/16): between 25%% and 60%%.
	red := reductions(f5)
	for _, label := range []string{"Group(2)", "Group(4)", "Group(8)", "Group(16)"} {
		if red[label] < 25 || red[label] > 60 {
			t.Fatalf("%s average reduction %.0f%% out of the paper band", label, red[label])
		}
	}
	// Figure 6: groups 4 or 8 have the best mean, as in the paper.
	f6 := tg.Fig6(f5)
	if !strings.Contains(f6.Notes[0], "Group(4)") && !strings.Contains(f6.Notes[0], "Group(8)") {
		t.Fatalf("best group size: %v", f6.Notes[0])
	}
}

func TestFig7Shape(t *testing.T) {
	f := mustT(t, tg.Fig7)
	all := mustRow(t, f, "All(32)")
	g4 := mustRow(t, f, "Group(4)")
	for i := range all {
		if g4[i] >= all[i] {
			t.Fatalf("point %d: group 4 (%.1f) not below All (%.1f)", i, g4[i], all[i])
		}
	}
	// Paper: up to 70% reduction at group 4, 30 s.
	pct, row, col := maxReduction(f)
	if pct < 55 || pct > 90 {
		t.Fatalf("max reduction %.0f%%, paper reports 70%%", pct)
	}
	if row != "Group(4)" && row != "Group(2)" {
		t.Fatalf("max reduction at %s/%s, paper: group 4 at 30s", row, col)
	}
	// Average reductions moderate (paper: 28/32/27/14): global communication
	// limits the overlap.
	red := reductions(f)
	if red["Group(8)"] < 15 || red["Group(8)"] > 50 {
		t.Fatalf("group 8 average reduction %.0f%% out of band", red["Group(8)"])
	}
	// Individual(1) is the worst grouped configuration.
	g1 := mustRow(t, f, "Individual(1)")
	g16 := mustRow(t, f, "Group(16)")
	for i := range g1 {
		if g1[i] < g16[i] {
			t.Fatalf("point %d: Individual(1) should not beat Group(16)", i)
		}
	}
}

func TestPhaseBreakdownStorageDominates(t *testing.T) {
	pb := mustT(t, tg.PhaseBreakdown)
	// Paper Section 3.1: storage is >95% of the delay for the regular
	// protocol.
	if got := mustCell(t, pb, "storage share", "All(32)"); got < 0.95 {
		t.Fatalf("regular-protocol storage share %.3f, paper >0.95", got)
	}
	// For small groups the fixed setup costs eat a larger share.
	if gAll, g2 := mustCell(t, pb, "storage share", "All(32)"), mustCell(t, pb, "storage share", "Group(2)"); g2 >= gAll {
		t.Fatalf("storage share should fall for small groups: all=%.3f g2=%.3f", gAll, g2)
	}
}

func TestAblationHelperEffect(t *testing.T) {
	a := mustT(t, tg.AblationHelper)
	on := a.Cells[0]
	off := a.Cells[1]
	// Without the helper thread, teardown against computing peers stalls
	// for up to a compute chunk; with it, within ~the helper interval.
	if on[1] > 0.5 {
		t.Fatalf("teardown with helper %.2fs, want well under a second", on[1])
	}
	if off[1] < on[1]*3 {
		t.Fatalf("helper ablation shows no effect: on=%.2fs off=%.2fs", on[1], off[1])
	}
}

func TestAblationGroupFormationEffect(t *testing.T) {
	a := mustT(t, tg.AblationGroupFormation)
	static := a.Cells[0][0]
	dynamic := a.Cells[1][0]
	// Static rank-order groups split every strided pair, so the pairs
	// stall for most of the cycle; dynamic formation recovers them.
	if dynamic >= static {
		t.Fatalf("dynamic (%.1fs) should beat static (%.1fs) on strided pairs", dynamic, static)
	}
	if dynamic > static/2 {
		t.Fatalf("dynamic formation gain too small: static=%.1fs dynamic=%.1fs", static, dynamic)
	}
}

func TestAblationConnCostSmall(t *testing.T) {
	a := mustT(t, tg.AblationConnCost)
	// Coordination stays a small share of the delay across OOB latencies up
	// to 1 ms (the paper's premise that storage dominates).
	for i, col := range a.Cols[:3] {
		eff := a.Cells[0][i]
		coord := a.Cells[1][i]
		if coord > eff/4 {
			t.Fatalf("OOB %s: coordination %.2fs vs delay %.2fs", col, coord, eff)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{
		Title: "t", Cols: []string{"a", "b"}, Rows: []string{"x"},
		Cells: [][]float64{{1, 2}},
	}
	if mustCell(t, tb, "x", "b") != 2 {
		t.Fatal("Cell")
	}
	if got := mustRow(t, tb, "x"); got[0] != 1 {
		t.Fatal("Row")
	}
	if s := tb.String(); !strings.Contains(s, "t") || !strings.Contains(s, "2.00") {
		t.Fatalf("render: %q", s)
	}
	if _, err := tb.Row("nope"); err == nil {
		t.Fatal("missing row should return an error")
	}
}

func TestGroupLabel(t *testing.T) {
	if groupLabel(32, 0) != "All(32)" || groupLabel(32, 32) != "All(32)" {
		t.Fatal("All label")
	}
	if groupLabel(32, 1) != "Individual(1)" {
		t.Fatal("Individual label")
	}
	if groupLabel(32, 8) != "Group(8)" {
		t.Fatal("Group label")
	}
}

func TestExtensionLoggingOverhead(t *testing.T) {
	e := mustT(t, tg.ExtensionLogging)
	// extlogging and extincremental pin the rendered tables (the decimals
	// docs/figures.txt carries), captured before the two extensions moved
	// from hand-built clusters onto harness.Run.
	checkGolden(t, "extlogging", []byte(e.String()+"\n"))
	buffering := e.Cells[0]
	logging := e.Cells[1]
	// Buffering logs nothing; logging pays measurable runtime overhead and
	// accumulates a large log volume (the Section 1/4.3 argument).
	if buffering[2] != 0 {
		t.Fatalf("buffering logged %v GB", buffering[2])
	}
	if logging[1] < 2 {
		t.Fatalf("logging overhead %.1f%%, expected a visible cost", logging[1])
	}
	if logging[2] < 5 {
		t.Fatalf("log volume %.1f GB, expected a huge log", logging[2])
	}
}

func TestExtensionIncrementalCombines(t *testing.T) {
	e := mustT(t, tg.ExtensionIncremental)
	checkGolden(t, "extincremental", []byte(e.String()+"\n"))
	get := func(row string, col int) float64 {
		for i, r := range e.Rows {
			if r == row {
				return e.Cells[i][col]
			}
		}
		t.Fatalf("row %q missing", row)
		return 0
	}
	allFull := get("All(32), full", 0)
	groupFull := get("Group(8), full", 0)
	allIncr := get("All(32), incremental", 0)
	both := get("Group(8), incremental", 0)
	if !(groupFull < allFull && allIncr < allFull) {
		t.Fatalf("each technique alone must help: %v", e.Cells)
	}
	if !(both < groupFull && both < allIncr) {
		t.Fatalf("combining must beat either alone: both=%.1f group=%.1f incr=%.1f",
			both, groupFull, allIncr)
	}
	// Later incremental checkpoints are much smaller than the first full
	// one: the per-checkpoint individual time drops.
	if i3 := get("Group(8), incremental", 1); i3 > get("Group(8), full", 1)/2 {
		t.Fatalf("incremental individual time %.1f not well below full", i3)
	}
}

func TestExtensionStagingTradeoff(t *testing.T) {
	e := mustT(t, tg.ExtensionStaging)
	get := func(row string, col int) float64 {
		for i, r := range e.Rows {
			if r == row {
				return e.Cells[i][col]
			}
		}
		t.Fatalf("row %q missing", row)
		return 0
	}
	// Staging collapses the stall below even the best direct grouping...
	if staged := get("staged, All(32)", 0); staged >= get("direct, Group(8)", 0) {
		t.Fatalf("staged delay %.1f not below direct group delay", staged)
	}
	// ...but leaves a long non-durable window, while direct writes have none.
	if get("direct, All(32)", 2) != 0 || get("direct, Group(8)", 2) != 0 {
		t.Fatal("direct mode must have no vulnerability window")
	}
	if w := get("staged, All(32)", 2); w < 20 {
		t.Fatalf("staged vulnerability window %.1f s, expected tens of seconds", w)
	}
}

func TestExtensionFaultRecoveryUCurve(t *testing.T) {
	e := mustT(t, tg.ExtensionFaultRecovery)
	for ri, row := range e.Rows {
		vals := e.Cells[ri]
		// Young's U-curve: an interior interval beats both extremes.
		best := vals[0]
		bestIdx := 0
		for i, v := range vals {
			if v < best {
				best, bestIdx = v, i
			}
		}
		if bestIdx == 0 || bestIdx == len(vals)-1 {
			t.Fatalf("%s: best interval at the sweep edge (%v), no U-curve", row, vals)
		}
		// Recovery is effective: even the worst interval finishes within a
		// few multiples of the ~45s baseline.
		for _, v := range vals {
			if v > 250 {
				t.Fatalf("%s: wall %v s, recovery ineffective", row, v)
			}
		}
	}
}

func TestAblationNoiseWorkConservation(t *testing.T) {
	a := mustT(t, tg.AblationNoise)
	// The recorded finding: share imbalance alone moves the delay by only a
	// few percent at either protocol, because the server stays
	// work-conserving.
	for ri, row := range a.Rows {
		base := a.Cells[ri][0]
		for ci, v := range a.Cells[ri] {
			if v < base*0.97 || v > base*1.10 {
				t.Fatalf("%s at %s: %.2f vs base %.2f — imbalance should be nearly absorbed",
					row, a.Cols[ci], v, base)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	// The whole stack is deterministic: regenerating a figure twice yields
	// byte-identical tables.
	a := mustT(t, tg.Fig1).String()
	b := mustT(t, tg.Fig1).String()
	if a != b {
		t.Fatal("Fig1 not deterministic")
	}
	c := mustT(t, tg.AblationNoise).String() // exercises the seeded RNG paths too
	d := mustT(t, tg.AblationNoise).String()
	if c != d {
		t.Fatal("noise ablation not deterministic")
	}
}

func TestExtensionScalability(t *testing.T) {
	e := mustT(t, tg.ExtensionScalability)
	all := e.Cells[0]
	grp := e.Cells[1]
	// Regular delay roughly doubles with the rank count.
	for i := 1; i < len(all); i++ {
		ratio := all[i] / all[i-1]
		if ratio < 1.8 || ratio > 2.2 {
			t.Fatalf("regular delay not ~O(N): %v", all)
		}
	}
	// Group-based delay stays flat across job sizes.
	for i := 1; i < len(grp); i++ {
		if grp[i] > grp[0]*1.2 || grp[i] < grp[0]*0.8 {
			t.Fatalf("group-based delay not flat: %v", grp)
		}
	}
	// And the gap at the largest size is dramatic.
	if last := len(all) - 1; all[last] < 20*grp[last] {
		t.Fatalf("scalability gap too small: all=%v grp=%v", all[last], grp[last])
	}
}

func TestDynamicFormationRecoversHPLRows(t *testing.T) {
	// Run the timed HPL model with dynamic group formation: the observed
	// traffic is dominated by the per-step row broadcasts, so the formed
	// checkpoint groups must be the 8x4 grid's rows — exactly the paper's
	// "communication group size is effectively four".
	w := hplPkg.PaperTimed()
	cfg := harness.PaperCluster(w.P * w.Q)
	cfg.CR.GroupSize = 4
	cfg.CR.Dynamic = true
	res, err := harness.MeasureObserved(cfg, w, 100*sim.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Report.Groups
	if len(groups) != w.P {
		t.Fatalf("dynamic formation produced %d groups, want %d rows: %v",
			len(groups), w.P, groups)
	}
	for gi, g := range groups {
		if len(g) != w.Q {
			t.Fatalf("group %d size %d, want %d: %v", gi, len(g), w.Q, groups)
		}
		row := g[0] / w.Q
		for _, r := range g {
			if r/w.Q != row {
				t.Fatalf("group %d mixes grid rows: %v", gi, groups)
			}
		}
	}
}

func TestSerialParallelBitIdentical(t *testing.T) {
	// The concurrent Runner must be invisible in the results: the Fig 3 and
	// Fig 5 matrices rendered from a serial generator (workers=1) and a
	// parallel one (workers=8) are byte-identical.
	serial := NewGenerator(1)
	parallel := NewGenerator(8)
	for _, tc := range []struct {
		name string
		fn   func(*Generator) (*Table, error)
	}{
		{"Fig3", (*Generator).Fig3},
		{"Fig5", (*Generator).Fig5},
	} {
		a := mustT(t, func() (*Table, error) { return tc.fn(serial) }).String()
		b := mustT(t, func() (*Table, error) { return tc.fn(parallel) }).String()
		if a != b {
			t.Fatalf("%s differs between serial and parallel generation:\n%s\nvs\n%s", tc.name, a, b)
		}
	}
}

func TestExtensionAvailability(t *testing.T) {
	e := mustT(t, tg.ExtensionAvailability)
	young := len(e.Cols) - 1 // the "Young opt" cross-check column
	for ri, row := range e.Rows {
		vals := e.Cells[ri][:young]
		for ci, v := range vals {
			if v <= 0 || v > 1 {
				t.Fatalf("%s @ %ss: efficiency %v outside (0,1]", row, e.Cols[ci], v)
			}
		}
		// Young's optimum for this workload sits at or beyond the sweep's
		// longest interval, so within the sweep efficiency must rise (or
		// hold) as the interval grows toward it.
		opt := e.Cells[ri][young]
		if last := mustFloat(t, e.Cols[young-1]); opt < last {
			t.Fatalf("%s: Young optimum %.1fs inside the sweep, shape check assumes it past %vs", row, opt, last)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-0.02 {
				t.Fatalf("%s: efficiency not rising toward Young optimum %.1fs: %v", row, opt, vals)
			}
		}
	}
	// More reliable machines are never less efficient at any interval.
	for ci := 0; ci < young; ci++ {
		if e.Cells[1][ci] < e.Cells[0][ci] {
			t.Fatalf("MTBF %s beats %s at interval %ss: %v vs %v",
				e.Rows[0], e.Rows[1], e.Cols[ci], e.Cells[0][ci], e.Cells[1][ci])
		}
	}
}

// TestExtensionProtocols checks the protocol-zoo comparison's shape: all
// three members complete the same faulted workload, their failure-free delays
// track the shared storage write (the polled discipline quiesces every rank,
// so none of them can hide the 1 GB at 140 MB/s), and a crash at the same
// instant costs each of them a comparable recovery.
func TestExtensionProtocols(t *testing.T) {
	e := mustT(t, func() (*Table, error) { return tg.ExtensionProtocolsFor(ProtocolZoo()) })
	want := []string{"group(8) blocking", "whole-job blocking", "uncoordinated+logging"}
	if len(e.Rows) != len(want) {
		t.Fatalf("rows = %v, want %v", e.Rows, want)
	}
	for i, r := range want {
		if e.Rows[i] != r {
			t.Fatalf("row %d = %q, want %q", i, e.Rows[i], r)
		}
	}
	for ri, row := range e.Rows {
		delay := mustCell(t, e, row, "ckpt delay s")
		// The storage write alone is 32*32MB/140MBps ~ 7.3 s shared across
		// ~2 checkpoints' worth of accounting; coordination adds little.
		if delay < 3 || delay > 9 {
			t.Fatalf("%s: per-checkpoint delay %.2fs outside [3,9]", row, delay)
		}
		if ov := mustCell(t, e, row, "overhead %"); ov <= 0 || ov > 150 {
			t.Fatalf("%s: overhead %.1f%% outside (0,150]", row, ov)
		}
		if rec := mustCell(t, e, row, "recovery s"); rec <= 0 {
			t.Fatalf("%s: recovery %.2fs, want > 0 (the crash is not free)", row, rec)
		}
		if av := mustCell(t, e, row, "availability"); av <= 0 || av >= 1 {
			t.Fatalf("%s: availability %.3f outside (0,1)", row, av)
		}
		_ = ri
	}
	// Under the polled discipline the kinds tie on failure-free cost (see
	// the table notes): no kind may beat another by more than 25%.
	var delays []float64
	for _, row := range e.Rows {
		delays = append(delays, mustCell(t, e, row, "ckpt delay s"))
	}
	for i := 1; i < len(delays); i++ {
		hi, lo := delays[i-1], delays[i]
		if lo > hi {
			hi, lo = lo, hi
		}
		if hi > lo*1.25 {
			t.Fatalf("delays diverge beyond the polled-discipline tie: %v", delays)
		}
	}
}

// TestExtensionTiers checks the multi-tier storage comparison's shape:
// faster ack tiers strictly cut the per-checkpoint delay (and with it
// Young's optimal interval), RAM partner replicas make recovery cheap, and
// the full hierarchy inherits the RAM tier's numbers because the drain is
// off the critical path.
func TestExtensionTiers(t *testing.T) {
	e := mustT(t, tg.ExtensionTiers)
	want := []string{"central", "burst", "ram (k=2)", "hierarchy (k=2)"}
	if len(e.Rows) != len(want) {
		t.Fatalf("rows = %v, want %v", e.Rows, want)
	}
	for i, r := range want {
		if e.Rows[i] != r {
			t.Fatalf("row %d = %q, want %q", i, e.Rows[i], r)
		}
	}
	for _, row := range e.Rows {
		if d := mustCell(t, e, row, "ckpt delay s"); d <= 0 {
			t.Fatalf("%s: delay %.2fs, want > 0 (checkpoints are never free)", row, d)
		}
		if r := mustCell(t, e, row, "recovery s"); r <= 0 {
			t.Fatalf("%s: recovery %.2fs, want > 0 (the crash is not free)", row, r)
		}
		e20 := mustCell(t, e, row, "eff @MTBF 20s")
		e60 := mustCell(t, e, row, "eff @MTBF 60s")
		if e20 <= 0 || e20 >= 1 || e60 <= 0 || e60 >= 1 {
			t.Fatalf("%s: efficiencies %.3f/%.3f outside (0,1)", row, e20, e60)
		}
		if e60 < e20-0.02 {
			t.Fatalf("%s: more reliable machine less efficient (%.3f @60s vs %.3f @20s)",
				row, e60, e20)
		}
	}
	// Each faster ack tier strictly cuts the delay, and Young's optimum
	// follows it down (sqrt is monotone).
	for _, pair := range [][2]string{{"central", "burst"}, {"burst", "ram (k=2)"}} {
		slow, fast := pair[0], pair[1]
		if ds, df := mustCell(t, e, slow, "ckpt delay s"), mustCell(t, e, fast, "ckpt delay s"); df >= ds {
			t.Fatalf("delay %s %.2fs not below %s %.2fs", fast, df, slow, ds)
		}
		if ys, yf := mustCell(t, e, slow, "Young opt s"), mustCell(t, e, fast, "Young opt s"); yf >= ys {
			t.Fatalf("Young opt %s %.2fs not below %s %.2fs", fast, yf, slow, ys)
		}
	}
	// RAM replicas make the crash cheap relative to a central read-back.
	if rc, rr := mustCell(t, e, "central", "recovery s"), mustCell(t, e, "ram (k=2)", "recovery s"); rr >= rc/2 {
		t.Fatalf("RAM recovery %.2fs not well below central %.2fs", rr, rc)
	}
	// The hierarchy acks at RAM, so its foreground numbers match the RAM
	// tier; the background drain must not leak into delay or recovery.
	for _, col := range e.Cols {
		hr, rr := mustCell(t, e, "hierarchy (k=2)", col), mustCell(t, e, "ram (k=2)", col)
		if diff := hr - rr; diff < -0.05*rr-0.01 || diff > 0.05*rr+0.01 {
			t.Fatalf("hierarchy %s %.3f diverges from ram %.3f", col, hr, rr)
		}
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
