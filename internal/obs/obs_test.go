package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gbcr/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleEvents is a small timeline exercising every layer, both track kinds
// (system and rank), all three event types, and the optional fields.
func sampleEvents() []Event {
	return []Event{
		{At: 0, Rank: -1, Layer: LayerCR, Type: Instant, What: KindRequest, Detail: "cycle 1, groups [[0 1]]"},
		{At: sim.Millisecond, Rank: 0, Layer: LayerKernel, Type: Begin, What: KindPark, Detail: "cr: initial synchronization"},
		{At: 2 * sim.Millisecond, Rank: 1, Layer: LayerIB, Type: Instant, What: KindCMReq, Arg: 0},
		{At: 3 * sim.Millisecond, Rank: 0, Layer: LayerKernel, Type: End, What: KindPark},
		{At: 3 * sim.Millisecond, Rank: 0, Layer: LayerCR, Type: Begin, What: KindCkptWrite, Val: 20 << 20},
		{At: 4 * sim.Millisecond, Rank: -1, Layer: LayerStorage, Type: Instant, What: KindXferStart, Arg: 20 << 20},
		{At: 90 * sim.Millisecond, Rank: 0, Layer: LayerCR, Type: End, What: KindCkptWrite},
		{At: 91 * sim.Millisecond, Rank: 1, Layer: LayerMPI, Type: Instant, What: KindBufferMsg, Peer: 0, Arg: 4096},
		// The fault layer's event vocabulary (internal/fault): an "outage"
		// span while storage is lost or degraded, "cm-drop" per swallowed
		// connection-management packet, "crash" per injected fail-stop kill,
		// and "corrupt" when a committed snapshot is damaged in the archive.
		{At: 95 * sim.Millisecond, Rank: -1, Layer: LayerFault, Type: Begin, What: KindOutage, Detail: "factor=0"},
		{At: 96 * sim.Millisecond, Rank: -1, Layer: LayerFault, Type: Instant, What: KindCMDrop, Detail: "REQ", Arg: 1},
		{At: 97 * sim.Millisecond, Rank: -1, Layer: LayerFault, Type: End, What: KindOutage},
		{At: 98 * sim.Millisecond, Rank: -1, Layer: LayerFault, Type: Instant, What: KindCrash, Detail: "phase=write epoch=2", Arg: 1},
		{At: 99 * sim.Millisecond, Rank: -1, Layer: LayerFault, Type: Instant, What: KindCorrupt, Detail: "epoch=1"},
	}
}

func TestNilBusAndInstrumentsAreNoOps(t *testing.T) {
	// Every call here must be a safe no-op: a nil bus is the disabled path
	// every instrumented layer relies on.
	var bus *Bus
	bus.Emit(Event{What: KindSpawn})
	bus.AddSink(&MemorySink{})
	if bus.HasSinks() {
		t.Fatal("nil bus reports sinks")
	}
	if bus.Metrics() != nil {
		t.Fatal("nil bus has a registry")
	}
	var m *Metrics
	c := m.Counter(LayerIB, "x")
	if c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	h := m.Histogram(LayerCR, "y")
	if h != nil {
		t.Fatal("nil registry returned a live histogram")
	}
	h.Observe(sim.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if s := m.Snapshot(); len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry produced a non-empty snapshot")
	}
	var mem *MemorySink
	mem.Emit(Event{})
	if mem.Events() != nil {
		t.Fatal("nil memory sink recorded")
	}
	var js *JSONLSink
	js.Emit(Event{})
	if js.Err() != nil {
		t.Fatal("nil jsonl sink errored")
	}
	var ch *ChromeSink
	ch.Emit(Event{})
	var agg *Aggregate
	agg.Merge(Snapshot{Counters: []CounterValue{{Value: 1}}})
	if s := agg.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil aggregate accumulated")
	}
}

func TestMemorySinkRenderGolden(t *testing.T) {
	mem := &MemorySink{}
	bus := NewBus(mem)
	for _, e := range sampleEvents() {
		bus.Emit(e)
	}
	var buf bytes.Buffer
	mem.Render(&buf)
	buf.WriteString("-- summary --\n")
	buf.WriteString(mem.Summary())
	golden := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered timeline differs from %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

func TestMemorySinkFilters(t *testing.T) {
	mem := &MemorySink{}
	for _, e := range sampleEvents() {
		mem.Emit(e)
	}
	byRank := func(r int) []Event { return mem.Filter(func(e Event) bool { return e.Rank == r }) }
	if n := len(byRank(0)); n != 4 {
		t.Fatalf("rank 0 events: %d, want 4", n)
	}
	if n := len(byRank(-1)); n != 7 {
		t.Fatalf("system events: %d, want 7", n)
	}
	if n := len(mem.ByLayer(LayerCR)); n != 3 {
		t.Fatalf("cr events: %d, want 3", n)
	}
	if n := len(mem.ByLayer(LayerFault)); n != 5 {
		t.Fatalf("fault events: %d, want 5", n)
	}
}

func TestJSONLOutput(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	bus := NewBus(s)
	for _, e := range sampleEvents() {
		bus.Emit(e)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("lines: %d, want %d", len(lines), len(sampleEvents()))
	}
	var first struct {
		At    int64  `json:"at_ns"`
		Rank  int    `json:"rank"`
		Layer string `json:"layer"`
		Type  string `json:"type"`
		What  string `json:"what"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Rank != -1 || first.Layer != "cr" || first.Type != "instant" || first.What != "request" {
		t.Fatalf("first line decoded to %+v", first)
	}
}

// chromeFile mirrors the trace-event container for decoding in tests.
type chromeFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeSinkStructure(t *testing.T) {
	ch := NewChrome()
	for _, e := range sampleEvents() {
		ch.Emit(e)
	}
	var buf bytes.Buffer
	if err := RenderChromeMulti(&buf, []*ChromeSink{ch}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", f.DisplayTimeUnit)
	}
	// Tracks: metadata names system (tid 0), rank 0 (tid 1), rank 1 (tid 2).
	names := map[int]string{}
	var begins, ends int
	for _, e := range f.TraceEvents {
		switch e.Phase {
		case "M":
			if e.Name != "thread_name" {
				t.Fatalf("metadata event %q", e.Name)
			}
			names[e.TID], _ = e.Args["name"].(string)
		case "B":
			begins++
		case "E":
			ends++
			if e.Args != nil {
				t.Fatal("E event carries args")
			}
		}
	}
	if names[0] != "system" || names[1] != "rank 0" || names[2] != "rank 1" {
		t.Fatalf("track names %v", names)
	}
	if names[faultTID] != "faults" {
		t.Fatalf("fault track named %q, want %q", names[faultTID], "faults")
	}
	if begins != 3 || ends != 3 {
		t.Fatalf("begin/end spans %d/%d, want 3/3", begins, ends)
	}
	// Timestamps are microseconds: the 90ms event lands at ts=90000.
	found := false
	for _, e := range f.TraceEvents {
		if e.Name == "ckpt-write" && e.Phase == "E" && e.TS == 90000 {
			found = true
		}
	}
	if !found {
		t.Fatal("ckpt-write end span not at 90000us")
	}
}

// TestChromeSinkClosesDanglingSpans: a crashed run never emits End for the
// spans open at the instant of death; the renderer closes them at the final
// timestamp so the file stays balanced, and Render stays idempotent.
func TestChromeSinkClosesDanglingSpans(t *testing.T) {
	ch := NewChrome()
	ch.Emit(Event{At: 10 * sim.Millisecond, Rank: 0, Layer: LayerCR, Type: Begin, What: KindCkptWrite})
	ch.Emit(Event{At: 12 * sim.Millisecond, Rank: 0, Layer: LayerKernel, Type: Begin, What: KindPark})
	ch.Emit(Event{At: 15 * sim.Millisecond, Rank: 1, Layer: LayerCR, Type: Instant, What: KindCrash})
	render := func() chromeFile {
		var buf bytes.Buffer
		if err := RenderChromeMulti(&buf, []*ChromeSink{ch}); err != nil {
			t.Fatal(err)
		}
		var f chromeFile
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for pass := 0; pass < 2; pass++ {
		f := render()
		var begins, ends int
		for _, e := range f.TraceEvents {
			switch e.Phase {
			case "B":
				begins++
			case "E":
				ends++
				// Synthesized closes land at the trace's last timestamp and
				// pop innermost-first.
				if e.TS != 15000 {
					t.Fatalf("dangling span closed at %vus, want 15000", e.TS)
				}
			}
		}
		if begins != 2 || ends != 2 {
			t.Fatalf("pass %d: begin/end %d/%d, want 2/2", pass, begins, ends)
		}
	}
}

func TestMetricsRegistryAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Counter(LayerIB, "msgs").Add(3)
	m.Counter(LayerIB, "msgs").Inc()
	m.Counter(LayerStorage, "bytes").Add(1 << 20)
	h := m.Histogram(LayerCR, "individual")
	h.Observe(2 * sim.Second)
	h.Observe(4 * sim.Second)
	h.Observe(3 * sim.Second)
	if h.Count() != 3 || h.Min() != 2*sim.Second || h.Max() != 4*sim.Second || h.Mean() != 3*sim.Second {
		t.Fatalf("histogram: count=%d min=%v max=%v mean=%v", h.Count(), h.Min(), h.Max(), h.Mean())
	}
	s := m.Snapshot()
	if len(s.Counters) != 2 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot: %+v", s)
	}
	// Sorted by (layer, name): storage < ib.
	if s.Counters[0].Layer != LayerStorage || s.Counters[1].Layer != LayerIB {
		t.Fatalf("counter order: %+v", s.Counters)
	}
	if s.Counters[1].Value != 4 {
		t.Fatalf("ib.msgs = %d, want 4", s.Counters[1].Value)
	}
}

func TestAggregateMergeIsCommutative(t *testing.T) {
	m1 := NewMetrics()
	m1.Counter(LayerIB, "msgs").Add(10)
	m1.Histogram(LayerCR, "individual").Observe(2 * sim.Second)
	m2 := NewMetrics()
	m2.Counter(LayerIB, "msgs").Add(5)
	m2.Counter(LayerMPI, "eager_sent").Add(7)
	m2.Histogram(LayerCR, "individual").Observe(5 * sim.Second)

	a := NewAggregate()
	a.Merge(m1.Snapshot())
	a.Merge(m2.Snapshot())
	b := NewAggregate()
	b.Merge(m2.Snapshot())
	b.Merge(m1.Snapshot())

	var ja, jb bytes.Buffer
	if err := a.Snapshot().WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("merge order changed the aggregate:\n%s\nvs\n%s", ja.Bytes(), jb.Bytes())
	}
	var s Snapshot
	if err := json.Unmarshal(ja.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Histograms[0].Count != 2 || s.Histograms[0].Min != int64(2*sim.Second) || s.Histograms[0].Max != int64(5*sim.Second) {
		t.Fatalf("merged histogram: %+v", s.Histograms[0])
	}
}

func TestProcRankParsing(t *testing.T) {
	cases := map[string]int{
		"rank0":    0,
		"rank17":   17,
		"rank-1":   -1, // negative ranks are not rank tracks
		"helper":   -1,
		"rankX":    -1,
		"":         -1,
		"rank":     -1,
		"rank007x": -1,
	}
	//lint:allow-simdeterminism order-independent verification; every entry is checked
	for name, want := range cases {
		if got := procRank(name); got != want {
			t.Errorf("procRank(%q) = %d, want %d", name, got, want)
		}
	}
}

// BenchmarkEmitDisabled measures the disabled path: a nil bus and nil
// instruments. This must stay within noise of an empty loop — it is the cost
// every instrumented hot path pays when observation is off.
func BenchmarkEmitDisabled(b *testing.B) {
	var bus *Bus
	e := Event{At: 1, Rank: 0, Layer: LayerIB, Type: Instant, What: KindConnUp}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(e)
		bus.Metrics().Counter(LayerIB, "msgs").Inc()
	}
}

// BenchmarkEmitMemory is the enabled-path cost for comparison.
func BenchmarkEmitMemory(b *testing.B) {
	bus := NewBus(&MemorySink{})
	e := Event{At: 1, Rank: 0, Layer: LayerIB, Type: Instant, What: KindConnUp}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(e)
		bus.Metrics().Counter(LayerIB, "msgs").Inc()
	}
}
