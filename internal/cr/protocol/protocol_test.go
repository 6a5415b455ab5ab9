package protocol

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gbcr/internal/blcr"
)

// restartStore archives three epochs of a 3-rank job: epoch 1 committed,
// epoch 2 committed and then rank 2's image corrupted, and epoch 3 written
// and made durable by rank 0 alone.
func restartStore(t *testing.T) *blcr.Store {
	t.Helper()
	const n = 3
	st := blcr.NewStore(n)
	put := func(epoch, rank int) {
		if err := st.Put(blcr.New(rank, epoch, 0, 1, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	for epoch := 1; epoch <= 2; epoch++ {
		for rank := 0; rank < n; rank++ {
			put(epoch, rank)
		}
		if err := st.MarkComplete(epoch); err != nil {
			t.Fatal(err)
		}
	}
	st.Get(2, 2).Corrupt()
	put(3, 0)
	if err := st.SetRankDurable(3, 0); err != nil {
		t.Fatal(err)
	}
	return st
}

// lineEpochs renders a restart line as each rank's epoch, 0 for a rank that
// restarts from scratch, followed by the skipped count.
func lineEpochs(l Line) string {
	epochs := make([]int, len(l.Snaps))
	for r, s := range l.Snaps {
		if s != nil {
			epochs[r] = s.Epoch
		}
	}
	return fmt.Sprintf("%v skipped %d", epochs, l.Skipped)
}

// TestKindPolicy pins every decision a Kind makes, one row per kind: the
// phase vocabulary, whether it blocks, the schedule it plans, the restart
// line it selects, and each option combination it rejects, with its text.
// Names that are not kinds, the whole-job spelling among them, are rejected
// by Validate: only cr.Config.ResolveProtocol reads a spelling.
func TestKindPolicy(t *testing.T) {
	const n = 4
	// Ranks 0-2 and 1-3 talk in pairs, so traffic-formed groups of two differ
	// from the static ones.
	traffic := []map[int]int64{{2: 100}, {3: 100}, {0: 100}, {1: 100}}
	type reject struct {
		o    Options
		text string
	}
	cases := []struct {
		kind     Kind
		blocking bool
		phases   string
		accepts  Options
		plan     string // Plan(accepts, nil)
		whole    string // Plan at GroupSize 0 and at N
		dynamic  string // Plan(accepts with Dynamic, traffic)
		line     string // RestartLine(restartStore)
		rejects  []reject
	}{
		{
			kind: Group, blocking: true, phases: "[sync teardown write resume]",
			accepts: Options{N: n, GroupSize: 2},
			plan:    "[[0 1] [2 3]]", dynamic: "[[0 2] [1 3]]", whole: "[[0 1 2 3]]",
			line: "[1 1 1] skipped 1",
			rejects: []reject{
				{Options{N: 0}, "protocol: group protocol needs at least one rank, got 0"},
			},
		},
		{
			kind: Uncoordinated, blocking: false, phases: "[write resume]",
			accepts: Options{N: n, Logging: true},
			plan:    "[[0] [1] [2] [3]]", dynamic: "[[0] [1] [2] [3]]", whole: "[[0] [1] [2] [3]]",
			line: "[3 2 1] skipped 1",
			rejects: []reject{
				{Options{N: -1, Logging: true}, "protocol: uncoordinated protocol needs at least one rank, got -1"},
				{Options{N: n, Dynamic: true, Logging: true}, "protocol: uncoordinated protocol does not form groups; drop Dynamic"},
				{Options{N: n, GroupSize: 2, Logging: true}, "protocol: uncoordinated protocol does not form groups; drop GroupSize 2"},
				{Options{N: n}, "protocol: uncoordinated protocol requires sender-based message logging; set mpi.Config.LogMessages"},
			},
		},
	}
	for _, c := range cases {
		t.Run(string(c.kind), func(t *testing.T) {
			if !slices.Contains(Kinds(), c.kind) {
				t.Error("not in Kinds")
			}
			if got := c.kind.Blocking(); got != c.blocking {
				t.Errorf("Blocking = %v, want %v", got, c.blocking)
			}
			if got := fmt.Sprint(c.kind.Phases()); got != c.phases {
				t.Errorf("Phases = %s, want %s", got, c.phases)
			}
			if err := c.kind.Validate(c.accepts); err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", c.accepts, err)
			}
			if got := fmt.Sprint(c.kind.Plan(c.accepts, nil)); got != c.plan {
				t.Errorf("Plan = %s, want %s", got, c.plan)
			}
			for _, g := range []int{0, n} {
				o := c.accepts
				o.GroupSize = g
				if got := fmt.Sprint(c.kind.Plan(o, nil)); got != c.whole {
					t.Errorf("Plan at GroupSize %d = %s, want %s", g, got, c.whole)
				}
			}
			dyn := c.accepts
			dyn.Dynamic, dyn.GroupSize = true, 2
			if got := fmt.Sprint(c.kind.Plan(dyn, traffic)); got != c.dynamic {
				t.Errorf("dynamic Plan = %s, want %s", got, c.dynamic)
			}
			if got := lineEpochs(c.kind.RestartLine(restartStore(t))); got != c.line {
				t.Errorf("RestartLine = %s, want %s", got, c.line)
			}
			if line := c.kind.RestartLine(blcr.NewStore(n)); !line.Empty() || len(line.Snaps) != n {
				t.Errorf("RestartLine on an empty store = %s, want %d ranks from scratch", lineEpochs(line), n)
			}
			for _, r := range c.rejects {
				if err := c.kind.Validate(r.o); err == nil || err.Error() != r.text {
					t.Errorf("Validate(%+v) = %v, want %q", r.o, err, r.text)
				}
			}
		})
	}
	for _, k := range []Kind{"", WholeJob, "chandy"} {
		t.Run(string(k), func(t *testing.T) {
			if slices.Contains(Kinds(), k) {
				t.Errorf("%q is a kind", k)
			}
			if err := k.Validate(Options{N: n, Logging: true}); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
				t.Errorf("Validate under %q = %v, want an unknown-protocol error", k, err)
			}
		})
	}
}
