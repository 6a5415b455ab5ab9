package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"unsafe"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/sim"
)

// TestKindNames: the vocabulary is a set with a name for every member — what
// the compiler cannot check about an enum and its name table. The wire names
// themselves are pinned by the golden timelines.
func TestKindNames(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(1); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("Kind(%d) has no name in kindNames", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Kind(%d) and Kind(%d) are both named %q", prev, k, name)
		}
		seen[name] = k
	}
}

// TestOutOfRangeEnumsRender: a value outside either closed set (the zero
// value, a corrupted or future one) renders as a placeholder, never a panic
// in a sink.
func TestOutOfRangeEnumsRender(t *testing.T) {
	for _, k := range []Kind{0, numKinds, 255} {
		if got := k.String(); got != "kind?" {
			t.Errorf("Kind(%d).String() = %q, want \"kind?\"", k, got)
		}
		_ = Event{What: k}.String()
	}
	for _, p := range []protocol.Phase{0, protocol.PhaseResume + 1, 255} {
		if got := p.String(); got != "phase?" {
			t.Errorf("Phase(%d).String() = %q, want \"phase?\"", p, got)
		}
	}
}

// TestStructuredKindsRender: a kind whose emit site passes values renders
// the text its emit site once formatted itself, byte for byte, in every sink
// — at the boundary values a golden run rarely reaches (peer 0, tag 0, no
// connections, a sub-MB image rounded half to even, a sub-ms downtime).
// dup-drop is pinned only here: no scenario small enough for a golden
// replays a logged message. Every other kind's text is its Detail.
func TestStructuredKindsRender(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{What: KindBufferMsg, Peer: 0, Arg: 4096}, "dst=0"},
		{Event{What: KindBufferReq, Peer: 31, Arg: 64}, "dst=31"},
		{Event{What: KindOutboxDrain, Peer: 7, Arg: 3}, "dst=7"},
		{Event{What: KindDupDrop, Peer: 0, Arg: 1}, "src=0 seq=1"},
		{Event{What: KindDupDrop, Peer: 2, Arg: 1 << 40}, "src=2 seq=1099511627776"},
		{Event{What: KindMatchEager, Peer: 0, Arg: 8, Val: 0}, "src=0 tag=0"},
		{Event{What: KindMatchEager, Peer: 3, Arg: 0, Val: 1<<30 + 5}, "src=3 tag=1073741829"},
		{Event{What: KindRdvGrant, Peer: 1, Arg: 1 << 20, Val: 0}, "src=1 tag=0"},
		{Event{Type: Begin, What: KindCkptTeardown, Val: 0}, "0 connections to tear down"},
		{Event{Type: Begin, What: KindCkptTeardown, Val: 3}, "3 connections to tear down"},
		{Event{Type: Begin, What: KindCkptWrite, Val: 0}, "0 MB"},
		{Event{Type: Begin, What: KindCkptWrite, Val: 512 << 10}, "0 MB"},
		{Event{Type: Begin, What: KindCkptWrite, Val: 3 << 19}, "2 MB"},
		{Event{Type: Begin, What: KindCkptWrite, Val: 180 << 20}, "180 MB"},
		{Event{What: KindResume, Val: 0}, "downtime 0ns"},
		{Event{What: KindResume, Val: int64(750 * sim.Microsecond)}, "downtime 750us"},
		{Event{What: KindResume, Val: int64(2500 * sim.Millisecond)}, "downtime 2.5s"},
		{Event{What: KindGroupDone, Val: 0}, "group 0"},
		{Event{What: KindCycleDone, Val: 1}, "cycle 1"},
		{Event{What: KindCycleDone, Val: 12, Detail: " [uncoord]"}, "cycle 12 [uncoord]"},
		// An End carries no text; a kind that is not structured keeps Detail.
		{Event{Type: End, What: KindCkptWrite, Val: 20 << 20}, ""},
		{Event{What: KindHelperTick}, ""},
		{Event{What: KindCycleAbort, Val: 9, Detail: "cycle 1 epoch 1: rank 1 write failed"},
			"cycle 1 epoch 1: rank 1 write failed"},
	}
	for _, tc := range cases {
		e := tc.e
		if got := e.Text(); got != tc.want {
			t.Errorf("%v %v Text() = %q, want %q", e.What, e.Type, got, tc.want)
			continue
		}
		var line struct {
			Detail string `json:"detail"`
		}
		var buf bytes.Buffer
		NewJSONL(&buf).Emit(e)
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil || line.Detail != tc.want {
			t.Errorf("%v JSONL detail = %q (%v), want %q", e.What, line.Detail, err, tc.want)
		}
		ch := NewChrome()
		ch.Emit(e)
		if got, _ := ch.events[0].Args["detail"].(string); got != tc.want {
			t.Errorf("%v Chrome detail = %q, want %q", e.What, got, tc.want)
		}
	}
}

// TestEventSize: an Event is passed by value through every sink on every
// emit; Peer sits in the padding after What, so adding it and Val took the
// struct from 48 to 56 bytes and no further.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 56 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want at most 56", got)
	}
}
