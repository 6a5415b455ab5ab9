package obs

import (
	"encoding/json"
	"io"
)

// jsonEvent is the JSON Lines wire form of an Event. At is nanoseconds of
// simulated time, so the output is exact and byte-identical across
// same-seed runs. Detail is Event.Text: Peer and Val are rendered into it,
// not written as keys of their own.
type jsonEvent struct {
	At     int64  `json:"at_ns"`
	Rank   int    `json:"rank"`
	Layer  Layer  `json:"layer"`
	Type   Type   `json:"type"`
	What   Kind   `json:"what"`
	Detail string `json:"detail,omitempty"`
	Arg    int64  `json:"arg,omitempty"`
}

// JSONLSink streams events as JSON Lines (one JSON object per line) to a
// writer. Write errors are sticky: the first one is kept and later events
// are dropped, so a full disk cannot abort the simulation mid-run. Callers
// check Err after the run.
type JSONLSink struct {
	w   io.Writer
	err error
}

// NewJSONL returns a sink writing JSON Lines to w.
func NewJSONL(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	if s == nil || s.err != nil {
		return
	}
	b, err := json.Marshal(jsonEvent{
		At: int64(e.At), Rank: e.Rank, Layer: e.Layer, Type: e.Type,
		What: e.What, Detail: e.Text(), Arg: e.Arg,
	})
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Err returns the first write or encoding error, if any.
func (s *JSONLSink) Err() error {
	if s == nil {
		return nil
	}
	return s.err
}
