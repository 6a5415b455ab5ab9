package cr

import (
	"fmt"
	"strings"
	"testing"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// legalEdges is the controller's transition table written out once more, one
// "from event to" edge a string, so that changing an edge takes a change here.
var legalEdges = []string{
	"idle request turn",
	"turn turn turn", "turn group-done turn", "turn abort idle", "turn return turn",
	"turn ask requested", "turn stop sync", "turn freeze write",
	"requested stop sync", "requested freeze write", "requested abort idle", "requested return requested",
	"sync turn sync", "sync group-done sync", "sync go teardown", "sync abort aborting",
	"teardown torn-down write", "teardown abort aborting",
	"write commit resume-wait", "write abort aborting",
	"resume-wait turn resume-wait", "resume-wait group-done resume-wait", "resume-wait resume saved",
	"resume-wait cycle-done committed", "resume-wait abort aborting",
	"saved turn saved", "saved group-done saved", "saved cycle-done idle", "saved abort idle",
	"committed resume idle",
	"aborting return idle", "aborting request turn",
}

// TestTransitionTable puts every (state, event) pair through transition on a
// fresh cluster: a listed edge reaches its state and leaves the run going,
// and any other pair keeps the state and fails the run with a message naming
// the rank, the state and the event.
func TestTransitionTable(t *testing.T) {
	want := map[string]string{}
	for _, e := range legalEdges {
		f := strings.Fields(e)
		want[f[0]+" "+f[1]] = f[2]
	}
	legal := 0
	for s := range stateNames {
		for e := range eventNames {
			pair := stateNames[s] + " " + eventNames[e]
			c := newCluster(t, 2, testDefaults())
			ctl := c.co.Controller(1)
			ctl.state = state(s)
			ctl.transition(event(e))
			err := c.k.Run()
			if to, ok := want[pair]; ok {
				legal++
				if err != nil || stateNames[ctl.state] != to {
					t.Errorf("%s: reached %s (run: %v), want %s", pair, stateNames[ctl.state], err, to)
				}
				continue
			}
			msg := fmt.Sprintf("cr: rank 1: illegal event %s in state %s", eventNames[e], stateNames[s])
			if err == nil || err.Error() != msg || ctl.state != state(s) {
				t.Errorf("%s: run error %v in state %s, want %q in %s", pair, err, stateNames[ctl.state], msg, stateNames[s])
			}
		}
	}
	if legal != len(want) {
		t.Errorf("%d of the %d listed edges name a state or event the controller lacks", len(want)-legal, len(want))
	}
}

// TestIllegalTransitionFailsRun seeds an illegal edge into a running job: a
// msgGo reaching a rank with no cycle in progress fails the run, and the
// message names the rank, its state and the event.
func TestIllegalTransitionFailsRun(t *testing.T) {
	c := newCluster(t, 2, testDefaults())
	defer c.k.Shutdown()
	c.j.LaunchAll(computeLoop(4, 100*sim.Millisecond))
	c.k.At(150*sim.Millisecond, func() { c.co.send(1, msgGo{group: 0}) })
	const want = "cr: rank 1: illegal event go in state idle"
	if err := c.k.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

// TestRetryOvertakesAbortedProcess: a cycle aborts while both members sleep
// out a local setup longer than the retry backoff, so the retried cycle's
// request reaches them while they are still stopped in the aborted one
// (aborting → turn). Each wakes, finds its cycle gone and returns, then
// stops again for the retry, which commits the epoch.
func TestRetryOvertakesAbortedProcess(t *testing.T) {
	cfg := testDefaults()
	cfg.Footprint = 10 * testMB
	cfg.LocalSetup = 500 * sim.Millisecond
	c := newCluster(t, 2, cfg)
	mem := &obs.MemorySink{}
	c.co.SetObs(obs.NewBus(mem))
	c.j.LaunchAll(computeLoop(40, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.k.At(1100*sim.Millisecond, func() {
		if got := c.co.Controller(1).state; got != stateWrite {
			t.Errorf("rank 1 in %s at the abort, want write", stateNames[got])
		}
		c.co.onWriteFailed(msgWriteFailed{cycle: c.co.cycle, rank: 0})
	})
	c.k.At(1300*sim.Millisecond, func() {
		if got := c.co.Controller(1).state; got != stateRequested {
			t.Errorf("rank 1 in %s once the retry began, want requested", stateNames[got])
		}
	})
	runSim(t, c.k)
	if c.co.Aborts() != 1 || c.co.Epoch() != 1 {
		t.Fatalf("aborts %d, epoch %d; want 1 and 1", c.co.Aborts(), c.co.Epoch())
	}
	returns := 0
	for _, e := range mem.ByLayer(obs.LayerCR) {
		if e.What == obs.KindAbortResume {
			returns++
		}
	}
	if returns != 2 {
		t.Errorf("%d abort returns, want one a member", returns)
	}
}

// TestPolledRequestLeftOpenIsReported: under the polled discipline a safe
// point waits for an explicit boundary, and a pure-compute body never reaches
// one. A write failure aborts the first cycle while both members wait; the
// retry's request is still pending when each body returns, nothing serves it,
// and the run ends without an error and without the epoch. Reports says so,
// naming the cycle, instead of returning no report for it.
func TestPolledRequestLeftOpenIsReported(t *testing.T) {
	cfg := testDefaults()
	cfg.Footprint = 10 * testMB
	c := newCluster(t, 2, cfg)
	c.co.SetCapture(noAppState)
	c.j.LaunchAll(computeLoop(40, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.k.At(1100*sim.Millisecond, func() { c.co.onWriteFailed(msgWriteFailed{cycle: c.co.cycle, rank: 0}) })
	runSim(t, c.k)
	if c.co.Aborts() != 1 || c.co.Epoch() != 0 {
		t.Fatalf("aborts %d, epoch %d; want 1 and 0", c.co.Aborts(), c.co.Epoch())
	}
	if _, err := c.co.Reports(); err == nil || !strings.Contains(err.Error(), "cycle 2 never completed") {
		t.Fatalf("Reports returned %v, want the open retry named", err)
	}
}

// TestAbortDuringLocalSetupWritesNothing: the cycle aborts at 1.02 s, while
// both members sleep out the local setup of the checkpoint requested at 1 s.
// Waking at 1.5 s, each finds its cycle gone and returns without capturing or
// writing an image of the discarded epoch, so the retry's two writes are the
// only ones and it commits at 2.2 s. Members that wrote the discarded image
// first would hold storage and their processes 0.2 s longer, and the retry
// would commit at 2.4 s.
func TestAbortDuringLocalSetupWritesNothing(t *testing.T) {
	cfg := testDefaults()
	cfg.Footprint = 10 * testMB
	cfg.LocalSetup = 500 * sim.Millisecond
	c := newCluster(t, 2, cfg)
	mem := &obs.MemorySink{}
	c.co.SetObs(obs.NewBus(mem))
	c.j.LaunchAll(computeLoop(40, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.k.At(1020*sim.Millisecond, func() {
		c.co.onWriteFailed(msgWriteFailed{cycle: c.co.cycle, rank: 0})
	})
	runSim(t, c.k)
	if c.co.Aborts() != 1 || c.co.Epoch() != 1 {
		t.Fatalf("aborts %d, epoch %d; want 1 and 1", c.co.Aborts(), c.co.Epoch())
	}
	returned := map[int]sim.Time{}
	writes := 0
	for _, e := range mem.ByLayer(obs.LayerCR) {
		switch {
		case e.What == obs.KindAbortResume:
			returned[e.Rank] = e.At
		case e.What == obs.KindCkptWrite && e.Type == obs.Begin:
			writes++
			if at, ok := returned[e.Rank]; !ok {
				t.Errorf("rank %d began a write at %v, before it returned from the aborted cycle", e.Rank, e.At)
			} else if at > 1550*sim.Millisecond {
				t.Errorf("rank %d returned from the aborted cycle at %v, want at the end of its setup", e.Rank, at)
			}
		}
	}
	if writes != 2 || c.st.Transfers() != 2 {
		t.Errorf("%d ckpt-write spans, %d storage transfers; want 2 and 2, the retry's", writes, c.st.Transfers())
	}
	if done := c.reports(t)[0].DoneAt; done >= 2400*sim.Millisecond {
		t.Errorf("retry committed at %v, want before 2.4 s", done)
	}
}
