package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// A span is host time spent inside one call the benchmark makes into a
// layer. Spans nest: parent is the index of the enclosing span, -1 at the
// root, and cell numbers the root span (one simulation) a span lies under.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Cell    int    `json:"cell"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory and writes them out when the benchmark ends.
// A nil tracer records nothing, so traced and untraced code share one body.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
	cells int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	// A root span is one simulation and opens a new cell; the spans below
	// it belong to that cell.
	cell := t.cells
	if t.open >= 0 {
		cell = t.spans[t.open].Cell
	} else {
		t.cells++
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Cell: cell, StartNs: int64(time.Since(t.t0))})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.open = t.spans[id].Parent
}

// selfNs sums, over every span with the given name, its duration minus the
// part its child spans cover.
func (t *tracer) selfNs(name string) int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var sum int64
	for i, s := range t.spans {
		if s.Name == name {
			sum += s.dur() - child[i]
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceCounts are the counts a traced repetition takes itself, from the
// handles it holds at each span boundary; everything else comes from the
// bus's metrics registry. Scenario runs hand back no kernel, so events and
// the storage peak cover only the cells the benchmark assembles.
type traceCounts struct {
	cells         int
	restarts      int
	events        uint64
	simTime       sim.Time
	runNs         int64  // host time inside sim.Run and harness.RunScenario spans
	kernelRunNs   int64  // the part of runNs inside sim.Run: the kernels events counts
	runAllocB     uint64 // heap bytes allocated inside those spans
	maxConcurrent int
	bytesLogged   int64
}

// runSpan times fn as a run span: the span that drives a kernel to
// completion. Traced, it charges the span's host time and the heap bytes
// allocated inside it to the repetition, and returns the host time.
func (x *repState) runSpan(name string, fn func() error) (int64, error) {
	if !x.traced() {
		return 0, fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := x.tr.begin(name)
	err := fn()
	x.tr.end(s)
	runtime.ReadMemStats(&after)
	ns := x.tr.spans[s].dur()
	x.counts.runNs += ns
	x.counts.runAllocB += after.TotalAlloc - before.TotalAlloc
	return ns, err
}

// countSink counts emitted events without keeping them: a 2.8 M-event cell
// would otherwise hold gigabytes of events in memory.
type countSink struct{ n int64 }

func (s *countSink) Emit(obs.Event) { s.n++ }
