package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// Format"), as consumed by chrome://tracing and Perfetto. Timestamps are
// microseconds; fractional values are allowed and preserve the kernel's
// nanosecond resolution.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeSink buffers events for a Chrome trace-event file (RenderChromeMulti):
// every rank becomes one track (thread), system-wide activity (coordinator,
// storage, kernel) a "system" track, Begin/End pairs become duration spans,
// and Instants become instant events. Load the file in chrome://tracing or
// https://ui.perfetto.dev to inspect a whole checkpoint cycle visually.
type ChromeSink struct {
	// PID tags every event of this sink with a Chrome process id, so a
	// multi-cell run can merge per-cell sinks into one file with one process
	// per cell (RenderChromeMulti). Zero is the default single process.
	PID int
	// ProcessName, when set, names the process track in the merged view via
	// process_name metadata.
	ProcessName string

	events []chromeEvent
	tids   map[int]bool
	open   map[int][]string // per-track stack of unclosed Begin span names
	lastTS float64
}

// NewChrome returns an empty Chrome trace sink. Call RenderChromeMulti after
// the run to write the file.
func NewChrome() *ChromeSink {
	return &ChromeSink{tids: make(map[int]bool), open: make(map[int][]string)}
}

// faultTID is the reserved track id for injected faults. It sits far above
// any plausible rank track so the "faults" track renders apart from the
// per-rank lanes and never collides with rank+1 numbering.
const faultTID = 1 << 20

// tid maps a world rank to a stable track id: 0 is the system track, rank r
// is track r+1. Fault-layer events override this with faultTID.
func tid(rank int) int {
	if rank < 0 {
		return 0
	}
	return rank + 1
}

// Emit implements Sink.
func (s *ChromeSink) Emit(e Event) {
	if s == nil {
		return
	}
	ph, scope := "i", "t"
	switch e.Type {
	case Begin:
		ph, scope = "B", ""
	case End:
		ph, scope = "E", ""
	}
	track := tid(e.Rank)
	if e.Layer == LayerFault {
		// Injected faults get their own track regardless of which rank they
		// target; the target rank stays visible via the args below.
		track = faultTID
	}
	ce := chromeEvent{
		Name:  e.What.String(),
		Cat:   e.Layer.String(),
		Phase: ph,
		TS:    float64(e.At) / 1e3, // ns -> us
		PID:   s.PID,
		TID:   track,
		Scope: scope,
	}
	// "E" events close the most recent "B" on the same track; repeating
	// name/args is redundant and bloats the file.
	if e.Type != End {
		detail := e.Text()
		if detail != "" || e.Arg != 0 {
			ce.Args = make(map[string]any, 2)
		}
		if detail != "" {
			ce.Args["detail"] = detail
		}
		if e.Arg != 0 {
			ce.Args["arg"] = e.Arg
		}
	}
	s.events = append(s.events, ce)
	s.tids[ce.TID] = true
	if ce.TS > s.lastTS {
		s.lastTS = ce.TS
	}
	switch e.Type {
	case Begin:
		s.open[track] = append(s.open[track], ce.Name)
	case End:
		if st := s.open[track]; len(st) > 0 {
			s.open[track] = st[:len(st)-1]
		}
	}
}

// renderEvents returns the sink's complete event list: process/thread-name
// metadata in track order, the buffered events in emission (kernel) order,
// and synthesized End events for spans a crashed run left open. Built
// afresh each call, so rendering does not mutate the sink.
func (s *ChromeSink) renderEvents() []chromeEvent {
	var ids []int
	//lint:allow-simdeterminism track ids are sorted below before any output is built
	for id := range s.tids {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var meta []chromeEvent
	if s.ProcessName != "" {
		meta = append(meta, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   s.PID,
			Args:  map[string]any{"name": s.ProcessName},
		})
	}
	for _, id := range ids {
		name := "system"
		switch {
		case id == faultTID:
			name = "faults"
		case id > 0:
			name = fmt.Sprintf("rank %d", id-1)
		}
		meta = append(meta, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   s.PID,
			TID:   id,
			Args:  map[string]any{"name": name},
		})
	}
	// A crashed run leaves spans open (a killed rank never emits its End);
	// close them at the final timestamp so the file stays well-formed.
	var closing []chromeEvent
	for _, id := range ids {
		for st := s.open[id]; len(st) > 0; st = st[:len(st)-1] {
			closing = append(closing, chromeEvent{
				Name: st[len(st)-1], Phase: "E", TS: s.lastTS, PID: s.PID, TID: id,
			})
		}
	}
	return append(meta, append(s.events, closing...)...)
}

// RenderChromeMulti writes several sinks as one trace file, in slice order.
// The output is deterministic: each sink's events appear in emission
// (kernel) order, preceded by thread-name metadata in track order. Give each
// sink a distinct PID (and a ProcessName) so a merged multi-cell run renders
// one Chrome process per cell.
func RenderChromeMulti(w io.Writer, sinks []*ChromeSink) error {
	var all []chromeEvent
	for _, s := range sinks {
		all = append(all, s.renderEvents()...)
	}
	out := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{
		DisplayTimeUnit: "ms",
		TraceEvents:     all,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
