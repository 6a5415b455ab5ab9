package harness

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// smallCluster keeps test runtimes low: modest storage bandwidth, small
// footprints.
func smallCluster(n int) ClusterConfig {
	cfg := PaperCluster(n)
	cfg.Storage = storage.Config{AggregateBW: 100 << 20, ClientBW: 100 << 20}
	cfg.CR.LocalSetup = 0 // keep cycle timing simple for the unit tests
	return cfg
}

// TestClusterConfigOptions pins the cluster's settable options: the
// exported leaf fields of ClusterConfig, found by reflection. A field that
// only one value is ever set to is a constant of its package, not an option.
func TestClusterConfigOptions(t *testing.T) {
	want := []string{"N", "Seed",
		"Storage.AggregateBW", "Storage.ClientBW", "Storage.OpenLatency", "Storage.Droop", "Storage.ShareJitter",
		"Fabric.LinkBW", "Fabric.OOBLatency",
		"MPI.LogMessages",
		"CR.Protocol", "CR.GroupSize", "CR.Dynamic", "CR.HelperEnabled", "CR.LocalSetup", "CR.Incremental",
		"Tiers.Mode", "Tiers.Replicas"}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
			} else {
				got = append(got, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(ClusterConfig{}))
	if !slices.Equal(got, want) {
		t.Errorf("ClusterConfig's %d settable fields are\n  %v\nwant the %d\n  %v\n"+
			"a new option needs two non-test callers that set it to different values; until then it is a constant",
			len(got), got, len(want), want)
	}
}

// TestModelVsSim holds the simulation to the paper's analytic model (Section
// 5) on the paper's cluster: 32 ranks checkpointing in groups of 8 with
// 180 MB images. A rank's individual checkpoint time is then equation (3a)'s,
// the group's 8 writers sharing the aggregate throughput, each capped at the
// client rate, to within 2 %.
func TestModelVsSim(t *testing.T) {
	cfg := PaperCluster(32)
	cfg.CR.GroupSize = 8
	cfg.CR.LocalSetup = 0
	w := workload.CommGroups{N: 32, CommGroupSize: 8, Iters: 600,
		Chunk: 100 * sim.Millisecond, FootprintMB: 180}
	res, err := NewRunner(1).Measure(Cell{Config: cfg, Workload: w, IssuedAt: 10 * sim.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	meas := res.Report.MeanIndividual().Seconds()
	pred := 180 << 20 / min(cfg.Storage.AggregateBW/8, cfg.Storage.ClientBW)
	if off := math.Abs(meas-pred) / pred; off > 0.02 {
		t.Errorf("mean individual checkpoint time %.4g s, eq. (3a) %.4g s: %.2f %% off, over 2 %%", meas, pred, 100*off)
	}
}

func TestMeasureCommGroups(t *testing.T) {
	cfg := smallCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 4, Iters: 100,
		Chunk: 100 * sim.Millisecond, FootprintMB: 50}
	res, err := NewRunner(1).Measure(Cell{Config: cfg, Workload: w, IssuedAt: 2 * sim.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 || res.WithCkpt <= res.Baseline {
		t.Fatalf("times: %+v", res)
	}
	// Effective delay lies between Individual and Total (Section 5), with a
	// little slack for coordination overhead.
	d := res.EffectiveDelay()
	if d < res.MaxIndividual()-100*sim.Millisecond || d > res.Total()+500*sim.Millisecond {
		t.Fatalf("effective %v outside [individual %v, total %v]",
			d, res.MaxIndividual(), res.Total())
	}
}

func TestSweepGroupSizeHalving(t *testing.T) {
	// Figure 3's headline: while the checkpoint group covers the
	// communication group, halving the checkpoint group roughly halves the
	// effective delay.
	cfg := smallCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 120,
		Chunk: 100 * sim.Millisecond, FootprintMB: 100}
	r := NewRunner(0)
	var delays [3]sim.Time
	for i, gs := range []int{0, 4, 2} {
		c := cfg
		c.CR.GroupSize = gs
		res, err := r.Measure(Cell{Config: c, Workload: w, IssuedAt: 3 * sim.Second}, nil)
		if err != nil {
			t.Fatal(err)
		}
		delays[i] = res.EffectiveDelay()
	}
	all, g4, g2 := delays[0], delays[1], delays[2]
	if !(all > g4 && g4 > g2) {
		t.Fatalf("delays not decreasing: all=%v g4=%v g2=%v", all, g4, g2)
	}
	ratio := func(a, b sim.Time) float64 { return float64(a) / float64(b) }
	if r := ratio(all, g4); r < 1.6 || r > 2.6 {
		t.Fatalf("all/g4 ratio %.2f, want ~2", r)
	}
	if r := ratio(g4, g2); r < 1.6 || r > 2.6 {
		t.Fatalf("g4/g2 ratio %.2f, want ~2", r)
	}
}

func TestPaperClusterDefaults(t *testing.T) {
	cfg := PaperCluster(32)
	if cfg.N != 32 {
		t.Fatalf("paper cluster: %+v", cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Job.Size() != 32 {
		t.Fatal("job size")
	}
}

// TestSpilledCheckpointHasNoVulnerabilityWindow: a 2100 MB image never
// fits the 2 GiB burst buffer, so every write spills through to central
// storage and each image is cold before the cycle completes. The window
// after the processes resumed is zero, never negative.
func TestSpilledCheckpointHasNoVulnerabilityWindow(t *testing.T) {
	cfg := smallCluster(4)
	cfg.Tiers = tier.Config{Mode: tier.ModeBurst}
	w := workload.CommGroups{N: 4, CommGroupSize: 2, Iters: 60,
		Chunk: 50 * sim.Millisecond, FootprintMB: 2100}
	res, err := NewRunner(1).Measure(Cell{Config: cfg, Workload: w, IssuedAt: sim.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Report; rep.DrainedAt != 0 || rep.VulnerabilityWindow() != 0 {
		t.Errorf("DrainedAt %v, DoneAt %v, window %v; want no window once every image is cold at commit",
			rep.DrainedAt, rep.DoneAt, rep.VulnerabilityWindow())
	}
}

func TestMeasureRecordsTimeline(t *testing.T) {
	cfg := smallCluster(4)
	cfg.CR.GroupSize = 2
	w := workload.CommGroups{N: 4, CommGroupSize: 2, Iters: 60,
		Chunk: 100 * sim.Millisecond, FootprintMB: 20}
	mem := &obs.MemorySink{}
	bus := obs.NewBus(mem)
	res, err := NewRunner(1).Measure(Cell{Config: cfg, Workload: w, IssuedAt: 2 * sim.Second}, bus)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveDelay() <= 0 {
		t.Fatalf("result: %v", res)
	}
	if len(mem.Events()) == 0 {
		t.Fatal("event timeline empty")
	}
	// Every rank appears in the timeline, and every layer emitted.
	for r := 0; r < 4; r++ {
		if len(mem.Filter(func(e obs.Event) bool { return e.Rank == r })) == 0 {
			t.Fatalf("rank %d missing from timeline", r)
		}
	}
	for l := obs.LayerKernel; l <= obs.LayerCR; l++ {
		if len(mem.ByLayer(l)) == 0 {
			t.Fatalf("layer %v missing from timeline", l)
		}
	}
	// The registry saw the same cycle the report did.
	snap := bus.Metrics().Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("metrics snapshot empty: %+v", snap)
	}
	for _, c := range snap.Counters {
		if c.Layer == obs.LayerCR && c.Name == "cycles" && c.Value != 1 {
			t.Fatalf("cr.cycles = %d, want 1", c.Value)
		}
	}
}

// TestFinishedRankPhaseMetrics: on a cell where the second group's ranks
// return before their turn, the records a finished rank files feed the bus
// registry phase durations like a live rank's — it once left GoAt unset, so
// cr/sync took a negative sample and cr/teardown an absolute time.
func TestFinishedRankPhaseMetrics(t *testing.T) {
	cfg := smallCluster(8)
	cfg.CR.GroupSize = 4
	w := workload.CommGroups{N: 8, CommGroupSize: 4, Iters: 20,
		Chunk: 5 * sim.Millisecond, FootprintMB: 20}
	bus := obs.NewBus()
	res, err := NewRunner(1).Measure(Cell{Config: cfg, Workload: w, IssuedAt: 40 * sim.Millisecond}, bus)
	if err != nil {
		t.Fatal(err)
	}
	if late := res.Report.Records[7]; late.SafePointAt < res.Baseline {
		t.Fatalf("rank 7 stopped at %v, before the job's end at %v: no finished rank in this cell",
			late.SafePointAt, res.Baseline)
	}
	m := bus.Metrics()
	if n := m.Histogram(obs.LayerCR, "sync").Count(); n != 8 {
		t.Fatalf("cr/sync has %d samples, want one per rank", n)
	}
	if min := m.Histogram(obs.LayerCR, "sync").Min(); min < 0 {
		t.Fatalf("cr/sync min = %v", min)
	}
	if max := m.Histogram(obs.LayerCR, "teardown").Max(); max >= sim.Second {
		t.Fatalf("cr/teardown max = %v", max)
	}
}

// observedRun measures one small checkpointed run with all three exporter
// sinks attached and returns the serialized bytes of each.
func observedRun(t *testing.T) (jsonl, chrome, metrics []byte) {
	t.Helper()
	cfg := smallCluster(4)
	cfg.CR.GroupSize = 2
	w := workload.CommGroups{N: 4, CommGroupSize: 2, Iters: 60,
		Chunk: 100 * sim.Millisecond, FootprintMB: 20}
	var jb bytes.Buffer
	js := obs.NewJSONL(&jb)
	ch := obs.NewChrome()
	bus := obs.NewBus(js, ch)
	if _, err := NewRunner(1).Measure(Cell{Config: cfg, Workload: w, IssuedAt: 2 * sim.Second}, bus); err != nil {
		t.Fatal(err)
	}
	if js.Err() != nil {
		t.Fatal(js.Err())
	}
	var cb, mb bytes.Buffer
	if err := ch.Render(&cb); err != nil {
		t.Fatal(err)
	}
	if err := bus.Metrics().Snapshot().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), mb.Bytes()
}

// TestObservedExportsDeterministic asserts the core exporter contract: two
// same-seed runs produce byte-identical JSONL, Chrome trace, and metrics
// output.
func TestObservedExportsDeterministic(t *testing.T) {
	j1, c1, m1 := observedRun(t)
	j2, c2, m2 := observedRun(t)
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL output differs between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("Chrome trace output differs between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSON differs between identical runs")
	}
	if len(j1) == 0 || len(c1) == 0 || len(m1) == 0 {
		t.Fatalf("empty export: jsonl=%d chrome=%d metrics=%d bytes", len(j1), len(c1), len(m1))
	}
}
