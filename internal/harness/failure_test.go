package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// stuck is a workload whose ranks all wait for a message nobody sends, so a
// plain run of it deadlocks with every rank parked. With giveUp > 0, rank 0
// first fails the run at that time — for RunScenario, whose periodic
// checkpoints keep a stuck job's event queue from ever draining.
type stuck struct{ giveUp sim.Time }

func (stuck) Name() string { return "stuck" }

func (w stuck) Launch(j *mpi.Job) (workload.Instance, error) { return w.LaunchFrom(j, nil) }

func (w stuck) LaunchFrom(j *mpi.Job, _ [][]byte) (workload.RestartableInstance, error) {
	j.LaunchAll(func(e *mpi.Env) {
		if w.giveUp > 0 && e.Rank() == 0 {
			e.Compute(w.giveUp)
			e.Proc().K().Fail(errors.New("rank 0 gave up"))
		}
		e.Recv(e.World(), mpi.ANY, 0)
	})
	return stuckInstance{}, nil
}

type stuckInstance struct{ workload.ConstFootprint }

func (stuckInstance) Capture(int) ([]byte, error) { return nil, nil }

// TestFailedRunReleasesGoroutines: every harness entry point that gives up on
// a kernel — after an error, or after a crash it restarts from — must shut it
// down, or each failed cell or attempt strands one goroutine (and stack) per
// rank for the life of the process.
func TestFailedRunReleasesGoroutines(t *testing.T) {
	const n = 16
	cases := []struct {
		name    string
		run     func() error
		wantErr string // "" for a run that must succeed
	}{
		{"Cluster.run", func() error {
			_, err := Baseline(smallCluster(n), stuck{})
			return err
		}, "deadlock"},
		{"RunScenario", func() error {
			_, err := RunScenario(smallCluster(n), stuck{giveUp: sim.Second}, fault.Scenario{}, 10*sim.Second, nil)
			return err
		}, "rank 0 gave up"},
		{"RunScenario crash restart", func() error {
			res, err := RunScenario(smallCluster(n), scenarioRing(n), fault.Scenario{
				Faults: []fault.Fault{{Kind: fault.RankCrash, Rank: -1, At: 2 * sim.Second}}}, sim.Second, nil)
			if err == nil && res.Failures != 1 {
				err = fmt.Errorf("failures = %d, want 1", res.Failures)
			}
			return err
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := tc.run()
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
			// Give the runtime a moment to retire exited goroutines.
			for i := 0; i < 50; i++ {
				if runtime.NumGoroutine() <= before {
					return
				}
				runtime.Gosched()
				//lint:allow-simdeterminism real-time yield for a host-concurrency test, not simulated time
				time.Sleep(time.Millisecond)
			}
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		})
	}
}

func explodingCallback() { panic("callback boom") }

// TestForEachCallbackPanicBecomesError: a panic out of a kernel event
// callback unwinds through Kernel.Run on the worker's goroutine, where
// ForEach turns it into that cell's error, callback frame included.
func TestForEachCallbackPanicBecomesError(t *testing.T) {
	err := NewRunner(2).ForEach(3, func(i int) error {
		c, err := NewCluster(smallCluster(4))
		if err != nil {
			return err
		}
		defer c.K.Shutdown()
		if _, err := c.launch(stuck{}); err != nil {
			return err
		}
		if i == 1 {
			c.K.At(sim.Second, explodingCallback) // every rank is parked by now
		}
		if err := c.K.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("cell %d: Run = %v, want a deadlock", i, err)
		}
		return nil
	})
	if err == nil {
		t.Fatal("callback panic was swallowed")
	}
	for _, want := range []string{"harness: cell 1 panicked: ", "callback boom", "explodingCallback"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestMemLossCountPastTheJob: a node loss whose count runs far off the end of
// the job loses the same nodes as one that stops at its last rank, so the run
// finishes promptly with the same result however large the count.
func TestMemLossCountPastTheJob(t *testing.T) {
	r := matrix()[0] // ring4
	type outcome struct {
		res AvailabilityResult
		err error
	}
	run := func(spec string) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := r.run(protocol.Group, tier.ModeHierarchy, mustParse(t, spec), nil)
			ch <- outcome{res, err}
		}()
		return ch
	}
	want := <-run("memloss@1s:count=4")
	var got outcome
	select {
	case got = <-run("memloss@1s:count=1000000000000000"):
	//lint:allow-simdeterminism a host-time deadline turns a hang into a failure
	case <-time.After(30 * time.Second):
		t.Fatal("a node loss of 10^15 nodes on a 4-rank job still running after 30 s")
	}
	if want.err != nil || got.err != nil {
		t.Fatalf("count=4: %v; huge count: %v", want.err, got.err)
	}
	if ringSums(got.res.FinalInst) != ringSums(want.res.FinalInst) {
		t.Errorf("results %s, want %s", ringSums(got.res.FinalInst), ringSums(want.res.FinalInst))
	}
	got.res.FinalInst, want.res.FinalInst = nil, nil
	if got.res != want.res || got.res.Failures != 1 {
		t.Errorf("huge count: %+v\nwant %+v with one failure", got.res, want.res)
	}
}
