package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gbcr/internal/cr/protocol"
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

// capturedOutputs holds every merged artifact of one RunCaptured execution.
type capturedOutputs struct {
	timeline, jsonl, chrome, metrics []byte
	results                          []Result
}

func captureAtWidth(t *testing.T, cells []Cell, workers int) capturedOutputs {
	t.Helper()
	run, err := NewRunner(workers).RunCaptured(cells, Capture{Trace: true, JSONL: true, Chrome: true})
	if err != nil {
		t.Fatalf("RunCaptured(workers=%d): %v", workers, err)
	}
	var out capturedOutputs
	var buf bytes.Buffer
	if err := run.RenderTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out.timeline = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.jsonl = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := run.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out.chrome = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := run.Aggregate().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.metrics = append([]byte(nil), buf.Bytes()...)
	out.results = run.Results
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

// TestCapturedRunWithoutCaptures covers the render rejection paths: an
// output that was not captured is an error, not an empty file.
func TestCapturedRunWithoutCaptures(t *testing.T) {
	run, err := NewRunner(2).RunCaptured(equivCells()[:2], Capture{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run.RenderTimeline(&buf); err == nil {
		t.Fatal("timeline rendered without capture")
	}
	if err := run.WriteJSONL(&buf); err == nil {
		t.Fatal("JSONL written without capture")
	}
	if err := run.WriteChrome(&buf); err == nil {
		t.Fatal("Chrome written without capture")
	}
}
