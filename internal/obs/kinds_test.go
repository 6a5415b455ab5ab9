package obs

import (
	"testing"

	"gbcr/internal/cr/protocol"
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
