package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// Capture selects which per-cell observability outputs RunCaptured records.
// Captures are per cell and merged in cell order, so every output is
// identical at any worker count; only wall-clock time changes.
type Capture struct {
	// Trace captures per-cell text timelines (RenderTimeline).
	Trace bool
	// JSONL captures per-cell JSON Lines traces (WriteJSONL).
	JSONL bool
	// Chrome captures per-cell Chrome traces, one process per cell
	// (WriteChrome).
	Chrome bool
}

// CapturedRun is one executed matrix: results in cell order plus the merged
// observability captures.
type CapturedRun struct {
	Cells   []Cell
	Results []Result

	mems    []*obs.MemorySink
	jsonls  []*bytes.Buffer
	chromes []*obs.ChromeSink
	agg     *obs.Aggregate
}

// cellLabel is the stable, schedule-independent identity of cell i in
// merged outputs and error messages.
func cellLabel(i int, c Cell) string {
	return fmt.Sprintf("cell %d: %s group=%d at=%v",
		i, c.Workload.Name(), c.Config.CR.GroupSize, c.IssuedAt)
}

// RunCaptured measures every cell on the worker pool like Run, with a
// private observability bus and private sinks per cell, so concurrent cells
// never share a sink and the merged outputs do not depend on the schedule.
func (r *Runner) RunCaptured(cells []Cell, opt Capture) (*CapturedRun, error) {
	run := &CapturedRun{
		Cells:   cells,
		Results: make([]Result, len(cells)),
		agg:     obs.NewAggregate(),
	}
	if opt.Trace {
		run.mems = make([]*obs.MemorySink, len(cells))
	}
	if opt.JSONL {
		run.jsonls = make([]*bytes.Buffer, len(cells))
	}
	if opt.Chrome {
		run.chromes = make([]*obs.ChromeSink, len(cells))
	}
	err := r.ForEach(len(cells), func(i int) (err error) {
		bus := obs.NewBus()
		if opt.Trace {
			run.mems[i] = &obs.MemorySink{}
			bus.AddSink(run.mems[i])
		}
		if opt.JSONL {
			run.jsonls[i] = &bytes.Buffer{}
			bus.AddSink(obs.NewJSONL(run.jsonls[i]))
		}
		if opt.Chrome {
			// PID and label depend only on the cell index, so the merged
			// Chrome file is byte-identical at any worker count too.
			run.chromes[i] = obs.NewChrome()
			run.chromes[i].PID = i + 1
			run.chromes[i].ProcessName = cellLabel(i, cells[i])
			bus.AddSink(run.chromes[i])
		}
		if run.Results[i], err = r.measure(cells[i], bus); err != nil {
			return fmt.Errorf("%s: %w", cellLabel(i, cells[i]), err)
		}
		run.agg.Merge(bus.Metrics().Snapshot())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// RenderTimeline writes the merged text timeline: each cell's events in
// cell order under a stable header line. Byte-identical at any worker count.
func (r *CapturedRun) RenderTimeline(w io.Writer) error {
	if r.mems == nil {
		return fmt.Errorf("harness: timeline was not captured; set Capture.Trace")
	}
	for i, m := range r.mems {
		if _, err := fmt.Fprintf(w, "=== %s ===\n", cellLabel(i, r.Cells[i])); err != nil {
			return err
		}
		m.Render(w)
	}
	return nil
}

// WriteJSONL writes the merged JSON Lines trace: one cell-header object per
// cell, then that cell's events, in cell order. Byte-identical at any worker
// count.
func (r *CapturedRun) WriteJSONL(w io.Writer) error {
	if r.jsonls == nil {
		return fmt.Errorf("harness: JSONL trace was not captured; set Capture.JSONL")
	}
	for i, buf := range r.jsonls {
		hdr, err := json.Marshal(struct {
			Cell     int      `json:"cell"`
			Workload string   `json:"workload"`
			Group    int      `json:"group"`
			At       sim.Time `json:"at"`
		}{i, r.Cells[i].Workload.Name(), r.Cells[i].Config.CR.GroupSize, r.Cells[i].IssuedAt})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(hdr, '\n')); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the merged Chrome trace: one process per cell.
func (r *CapturedRun) WriteChrome(w io.Writer) error {
	if r.chromes == nil {
		return fmt.Errorf("harness: Chrome trace was not captured; set Capture.Chrome")
	}
	return obs.RenderChromeMulti(w, r.chromes)
}

// Aggregate returns the merged per-layer metrics across all cells. The
// merge is commutative, so the snapshot is identical at any worker count.
func (r *CapturedRun) Aggregate() obs.Snapshot { return r.agg.Snapshot() }
