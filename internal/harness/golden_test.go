package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gbcr/internal/cr"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCycle runs one observed default-path checkpointed measurement and
// returns the JSONL event trace plus a JSON dump of the cycle report.
func goldenCycle(t *testing.T, groupSize int) (trace, report []byte) {
	t.Helper()
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = groupSize
	w := workload.CommGroups{N: n, CommGroupSize: 2, Iters: 60,
		Chunk: 50 * sim.Millisecond, FootprintMB: 20}
	return goldenMeasure(t, cfg, w)
}

// goldenMeasure runs one observed checkpointed measurement at 1 s and returns
// the JSONL event trace plus a JSON dump of the cycle report.
func goldenMeasure(t *testing.T, cfg ClusterConfig, w workload.Workload) (trace, report []byte) {
	t.Helper()
	var buf bytes.Buffer
	js := obs.NewJSONL(&buf)
	res, err := MeasureObserved(cfg, w, 1*sim.Second, obs.NewBus(js))
	if err != nil {
		t.Fatal(err)
	}
	if js.Err() != nil {
		t.Fatal(js.Err())
	}
	rep, err := json.MarshalIndent(struct {
		Cycle     int
		Groups    [][]int
		RequestAt sim.Time
		DoneAt    sim.Time
		DrainedAt sim.Time
		Records   []cr.CkptRecord
	}{res.Report.Cycle, res.Report.Groups, res.Report.RequestAt,
		res.Report.DoneAt, res.Report.DrainedAt, res.Report.Records}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), append(rep, '\n')
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from its golden (%d vs %d bytes)", path, len(got), len(want))
	}
}

// TestWholeJobPathGolden pins the group=0 and group=n configurations — the
// group protocol with one group covering the job — byte-for-byte
// against traces and cycle reports captured before coordination policy moved
// into package cr/protocol. Any drift in event wording, ordering, timing, or
// per-rank records is a regression. Regenerate deliberately with
// `go test ./internal/harness -run Golden -update`.
func TestWholeJobPathGolden(t *testing.T) {
	for _, gs := range []int{0, 4} {
		gs := gs
		t.Run(fmt.Sprintf("group=%d", gs), func(t *testing.T) {
			trace, rep := goldenCycle(t, gs)
			checkGolden(t, fmt.Sprintf("default_g%d.trace.jsonl", gs), trace)
			checkGolden(t, fmt.Sprintf("default_g%d.report.json", gs), rep)
		})
	}
}

// TestRestartGolden pins a crash and restart under central storage
// byte-for-byte: the whole AvailabilityResult (recovery counts and the
// finished ranks' sums included) and the JSONL trace of every attempt, for a
// blocking protocol restarting from a committed epoch and for the
// uncoordinated one restarting from a per-rank line with log replay.
func TestRestartGolden(t *testing.T) {
	const n = 4
	for _, kind := range []protocol.Kind{protocol.Group, protocol.Uncoordinated} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := smallCluster(n)
			cfg.CR.Protocol = kind
			cfg.CR.GroupSize = 2
			if kind == protocol.Uncoordinated {
				cfg.CR.GroupSize = 0
				cfg.MPI.LogMessages = true
			}
			var buf bytes.Buffer
			js := obs.NewJSONL(&buf)
			w := workload.Ring{N: n, Iters: 60, Chunk: 20 * sim.Millisecond, FootprintMB: 5}
			res, err := RunScenario(cfg, w, mustParse(t, "crash@900ms:rank=1"),
				300*sim.Millisecond, obs.NewBus(js))
			if err != nil {
				t.Fatal(err)
			}
			if js.Err() != nil {
				t.Fatal(js.Err())
			}
			if res.Failures != 1 {
				t.Fatalf("failures = %d, want 1", res.Failures)
			}
			rep, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("restart_%s.trace.jsonl", kind), buf.Bytes())
			checkGolden(t, fmt.Sprintf("restart_%s.result.json", kind), append(rep, '\n'))
		})
	}
}

// TestRendezvousBufferingGolden pins the rendezvous path under a checkpoint:
// 16 KiB exchanges (past the 8 KiB eager threshold) inside one 4-rank
// communication group checkpointed as two groups of 2, so a granted
// rendezvous ("rdv-grant") and a control packet held at a group boundary
// ("buffer-req") both appear in the trace.
func TestRendezvousBufferingGolden(t *testing.T) {
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	w := workload.CommGroups{N: n, CommGroupSize: n, Iters: 60,
		Chunk: 50 * sim.Millisecond, MsgBytes: 16 << 10, FootprintMB: 20}
	trace, rep := goldenMeasure(t, cfg, w)
	for _, what := range []string{`"rdv-grant"`, `"buffer-req"`} {
		if !bytes.Contains(trace, []byte(what)) {
			t.Errorf("trace has no %s event", what)
		}
	}
	checkGolden(t, "rendezvous_g2.trace.jsonl", trace)
	checkGolden(t, "rendezvous_g2.report.json", rep)
}

// TestCycleAbortGolden pins a checkpoint cycle aborted by a storage outage
// and retried: Ring on 8 ranks in groups of 2 at paper scale, with central
// storage lost from 2.2 s to 2.6 s while the first cycle's writes are in
// flight. The trace carries the coordinator's "cycle-abort" and
// "cycle-retry", each member's "write-failed" or "cycle-abort" reaction, and
// the "abort-resume" of every stopped rank.
func TestCycleAbortGolden(t *testing.T) {
	const n = 8
	cfg := PaperCluster(n)
	cfg.CR.GroupSize = 2
	var buf bytes.Buffer
	js := obs.NewJSONL(&buf)
	w := workload.Ring{N: n, Iters: 42, Chunk: 50 * sim.Millisecond, FootprintMB: 180}
	res, err := RunScenario(cfg, w, mustParse(t, "outage@2200ms+400ms"), 2*sim.Second, obs.NewBus(js))
	if err != nil {
		t.Fatal(err)
	}
	if js.Err() != nil {
		t.Fatal(js.Err())
	}
	if res.CycleAborts != 1 {
		t.Fatalf("cycle aborts = %d, want 1", res.CycleAborts)
	}
	for _, what := range []string{`"cycle-abort"`, `"cycle-retry"`, `"write-failed"`, `"abort-resume"`} {
		if !bytes.Contains(buf.Bytes(), []byte(what)) {
			t.Errorf("trace has no %s event", what)
		}
	}
	rep, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "abort_ring8_g2.trace.jsonl", buf.Bytes())
	checkGolden(t, "abort_ring8_g2.result.json", append(rep, '\n'))
}
