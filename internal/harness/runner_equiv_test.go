package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// equivCells is the equivalence matrix: both protocols, the group one at
// sizes 2, 4 and 0 (one group, the whole job), repeated issuance times
// (exercising baseline dedup), and the tiered-storage hierarchy. Eight cells
// so width 8 puts one cell per worker.
func equivCells() []Cell {
	const n = 4
	w := workload.CommGroups{N: n, CommGroupSize: 2, Iters: 60,
		Chunk: 50 * sim.Millisecond, FootprintMB: 20}
	group := func(gs int) ClusterConfig {
		cfg := smallCluster(n)
		cfg.CR.GroupSize = gs
		return cfg
	}
	uncoord := group(0)
	uncoord.CR.Protocol = protocol.Uncoordinated
	uncoord.MPI.LogMessages = true
	tiered := group(2)
	tiered.Tiers.Mode = tier.ModeHierarchy
	tiered.Tiers.Replicas = 2
	return []Cell{
		{Config: group(2), Workload: w, IssuedAt: 1 * sim.Second},
		{Config: group(2), Workload: w, IssuedAt: 2 * sim.Second},
		{Config: group(4), Workload: w, IssuedAt: 1 * sim.Second},
		{Config: group(0), Workload: w, IssuedAt: 1 * sim.Second},
		{Config: group(0), Workload: w, IssuedAt: 2 * sim.Second},
		{Config: uncoord, Workload: w, IssuedAt: 1 * sim.Second},
		{Config: tiered, Workload: w, IssuedAt: 1 * sim.Second},
		{Config: tiered, Workload: w, IssuedAt: 2 * sim.Second},
	}
}

// capturedOutputs holds every merged artifact of one matrix execution.
type capturedOutputs struct {
	timeline, jsonl, chrome, metrics []byte
	results                          []Result
}

// captureAtWidth measures cells on a pool of the given width through ForEach
// and Measure, each cell with a private bus and sinks, and merges the
// captures in cell order: a header line and the cell's events for the text
// timeline and JSONL, one Chrome process per cell, the aggregate of the
// metrics.
func captureAtWidth(t *testing.T, cells []Cell, workers int) capturedOutputs {
	t.Helper()
	r := NewRunner(workers)
	mems := make([]*obs.MemorySink, len(cells))
	jsonls := make([]bytes.Buffer, len(cells))
	chromes := make([]*obs.ChromeSink, len(cells))
	agg := obs.NewAggregate()
	out := capturedOutputs{results: make([]Result, len(cells))}
	err := r.ForEach(len(cells), func(i int) (err error) {
		bus := obs.NewBus()
		mems[i], chromes[i] = &obs.MemorySink{}, obs.NewChrome()
		chromes[i].PID = i + 1
		bus.AddSink(mems[i])
		bus.AddSink(obs.NewJSONL(&jsonls[i]))
		bus.AddSink(chromes[i])
		out.results[i], err = r.Measure(cells[i], bus)
		agg.Merge(bus.Metrics().Snapshot())
		return err
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var timeline, jsonl, chrome, metrics bytes.Buffer
	for i := range cells {
		label := fmt.Sprintf("cell %d: group=%d at=%v\n", i, cells[i].Config.CR.GroupSize, cells[i].IssuedAt)
		timeline.WriteString(label)
		mems[i].Render(&timeline)
		jsonl.WriteString(label)
		jsonl.Write(jsonls[i].Bytes())
	}
	if err := obs.RenderChromeMulti(&chrome, chromes); err != nil {
		t.Fatal(err)
	}
	if err := agg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	out.timeline, out.jsonl, out.chrome, out.metrics = timeline.Bytes(), jsonl.Bytes(), chrome.Bytes(), metrics.Bytes()
	return out
}

// TestShardedEquivalenceMatrix is the committed regression for the merged
// multi-cell outputs: byte-identical obs traces (text timeline, JSONL,
// Chrome) and equal metrics aggregates and CycleReports between a serial
// Runner and worker-pool widths S ∈ {1,2,4,8}, across all three protocols,
// two issuance times, and the tiered-storage hierarchy. Run under -race in
// CI.
func TestShardedEquivalenceMatrix(t *testing.T) {
	cells := equivCells()
	want := captureAtWidth(t, cells, 1)
	if len(want.results) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(want.results), len(cells))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("S=%d", workers), func(t *testing.T) {
			got := captureAtWidth(t, cells, workers)
			if !bytes.Equal(got.timeline, want.timeline) {
				t.Errorf("text timeline differs from serial (%d vs %d bytes)",
					len(got.timeline), len(want.timeline))
			}
			if !bytes.Equal(got.jsonl, want.jsonl) {
				t.Errorf("JSONL trace differs from serial (%d vs %d bytes)",
					len(got.jsonl), len(want.jsonl))
			}
			if !bytes.Equal(got.chrome, want.chrome) {
				t.Errorf("Chrome trace differs from serial (%d vs %d bytes)",
					len(got.chrome), len(want.chrome))
			}
			if !bytes.Equal(got.metrics, want.metrics) {
				t.Errorf("metrics aggregate differs from serial:\nserial: %s\nworkers=%d: %s",
					want.metrics, workers, got.metrics)
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("results (cycle reports included) differ from serial")
			}
		})
	}
}
