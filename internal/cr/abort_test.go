package cr

import (
	"slices"
	"strings"
	"testing"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// TestCycleAbortRetryCommit is the two-phase-commit hardening test: a
// storage outage mid-write aborts the group cycle (partial epoch discarded,
// all ranks roll back and resume), the coordinator retries after backoff,
// and once storage returns the retried cycle commits the same target epoch.
func TestCycleAbortRetryCommit(t *testing.T) {
	const n = 4
	cfg := testDefaults()
	cfg.Footprint = 100 * testMB
	c := newCluster(t, n, cfg)
	mem := &obs.MemorySink{}
	c.co.SetObs(obs.NewBus(mem))
	c.j.LaunchAll(computeLoop(60, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(2 * sim.Second)
	// The write phase spans roughly 2s..6s (4 ranks x 100 MB at 100 MB/s);
	// pull storage out from under it, then bring it back.
	c.k.At(2500*sim.Millisecond, func() { c.st.SetAvailability(0) })
	c.k.At(3500*sim.Millisecond, func() { c.st.SetAvailability(1) })
	runSim(t, c.k)

	if c.co.Aborts() == 0 {
		t.Fatal("outage mid-write caused no cycle abort")
	}
	if c.co.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 (retried cycle commits the same target epoch)", c.co.Epoch())
	}
	if !c.co.Snapshots().Complete(1) {
		t.Fatal("epoch 1 never committed")
	}
	if _, snaps, _ := c.co.Snapshots().LatestVerified(); len(snaps) != n {
		t.Fatalf("committed epoch holds %d snapshots, want %d", len(snaps), n)
	}
	// Aborted cycles yield no report; only the successful retry does.
	if reps := c.reports(t); len(reps) != 1 {
		t.Fatalf("reports: %d, want 1", len(reps))
	}
	var abortSeen, retrySeen bool
	for _, e := range mem.ByLayer(obs.LayerCR) {
		switch e.What {
		case obs.KindCycleAbort:
			abortSeen = true
		case obs.KindCycleRetry:
			retrySeen = true
		}
	}
	if !abortSeen || !retrySeen {
		t.Fatalf("timeline missing abort/retry events: abort=%v retry=%v", abortSeen, retrySeen)
	}
}

// TestCycleAbortBounded: with storage gone for good, the coordinator retries
// a bounded number of times and then fails the run instead of spinning.
func TestCycleAbortBounded(t *testing.T) {
	const n = 2
	cfg := testDefaults()
	cfg.Footprint = 10 * testMB
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(30, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.k.At(1100*sim.Millisecond, func() { c.st.SetAvailability(0) })
	err := c.k.Run()
	if err == nil {
		t.Fatal("expected the run to fail after bounded cycle retries")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("error %q does not report the retry bound", err)
	}
	if c.co.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0 (nothing committed during the outage)", c.co.Epoch())
	}
}

// TestPhaseHookObservesProtocolPhases: under every protocol spelling (group
// at g=2, wholejob as group at g=N, uncoord), the hook the fault injector
// uses sees every rank walk exactly that protocol's Phases(), in order, with
// the epoch under construction — from both drivers, since ranks 0-2
// checkpoint in AtSafePoint and the finished rank 3 from events. A phase a
// driver does not report is one a fault spec silently cannot target.
func TestPhaseHookObservesProtocolPhases(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.Group, protocol.WholeJob, protocol.Uncoordinated} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := testDefaults()
			cfg.Protocol = kind
			mpiCfg := mpi.DefaultConfig()
			switch kind {
			case protocol.Group:
				cfg.GroupSize = 2
			case protocol.Uncoordinated:
				mpiCfg.LogMessages = true
			}
			c := finishedRankCluster(t, cfg, mpiCfg)
			seen := make([][]protocol.Phase, c.j.Size())
			c.co.PhaseHook = func(rank int, phase protocol.Phase, epoch int) {
				if epoch != 1 {
					t.Errorf("rank %d phase %v reported epoch %d, want 1", rank, phase, epoch)
				}
				seen[rank] = append(seen[rank], phase)
			}
			runSim(t, c.k)
			if c.co.Epoch() != 1 {
				t.Fatalf("epoch = %d, want 1", c.co.Epoch())
			}
			want := c.co.proto.Phases()
			for r, got := range seen {
				if !slices.Equal(got, want) {
					t.Errorf("rank %d reported phases %v, want %v", r, got, want)
				}
			}
		})
	}
}

// finishedRankCluster is the scenario of the tests here that need both
// checkpoint drivers: ranks 0-2 loop over compute and an explicit checkpoint
// boundary; rank 3 sends rank 2 one message and returns, so it sits in
// finalize holding a connection when the checkpoint is requested at 2 s.
func finishedRankCluster(t *testing.T, cfg testConfig, mpiCfg mpi.Config) *testCluster {
	t.Helper()
	const n = 4
	cfg.Footprint = 100 * testMB
	c, err := buildClusterMPI(sim.NewKernel(1), n, cfg, mpiCfg)
	if err != nil {
		t.Fatal(err)
	}
	c.co.SetCapture(noAppState)
	for i := 0; i < n-1; i++ {
		i := i
		c.j.Launch(i, func(e *mpi.Env) {
			if i == 2 {
				e.Recv(e.World(), 3, 0)
			}
			for it := 0; it < 120; it++ {
				e.Compute(100 * sim.Millisecond)
				e.MaybeCheckpoint()
			}
		})
	}
	c.j.Launch(3, func(e *mpi.Env) { e.Send(e.World(), 2, 0, []byte("bye")) })
	c.co.ScheduleCheckpoint(2 * sim.Second)
	return c
}

// finishedRankUnderOutage runs finishedRankCluster with the 100 MB/s store
// down from 2.5 s to 3.5 s, across the first 100 MB writes.
func finishedRankUnderOutage(t *testing.T, cfg testConfig, mpiCfg mpi.Config) *testCluster {
	t.Helper()
	c := finishedRankCluster(t, cfg, mpiCfg)
	c.k.At(2500*sim.Millisecond, func() { c.st.SetAvailability(0) })
	c.k.At(3500*sim.Millisecond, func() { c.st.SetAvailability(1) })
	runSim(t, c.k)
	if c.co.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.co.Epoch())
	}
	// An aborted cycle leaves no report: only the one that committed does.
	reps := c.reports(t)
	if len(reps) != 1 {
		t.Fatalf("reports: %d, want 1", len(reps))
	}
	for r, rec := range reps[0].Records {
		if c.co.Controller(r).epoch != 1 || rec.Cycle != reps[0].Cycle {
			t.Fatalf("rank %d: epoch %d, record of cycle %d; want one checkpoint in cycle %d",
				r, c.co.Controller(r).epoch, rec.Cycle, reps[0].Cycle)
		}
	}
	return c
}

// TestFinishedRankCheckpointsOnceAfterAbort: the outage aborts the cycle while
// group 1 — the finished rank 3 and rank 2 — still waits for its turn. The
// retried cycle must checkpoint rank 3 once: a finished-rank driver left over
// from the aborted cycle and woken by the retry's connection teardown used to
// write a second image and fail the run on the duplicate snapshot.
func TestFinishedRankCheckpointsOnceAfterAbort(t *testing.T) {
	cfg := testDefaults()
	cfg.GroupSize = 2
	c := finishedRankUnderOutage(t, cfg, mpi.DefaultConfig())
	if c.co.Aborts() == 0 {
		t.Fatal("outage mid-write caused no cycle abort")
	}
	if !c.co.Snapshots().Complete(1) {
		t.Fatal("epoch 1 never committed")
	}
}

// TestUncoordFinishedRankRetriesLocally is the uncoordinated twin: every rank
// writes at once, the outage fails all four writes, and each rank — the
// finished one from kernel events — retries alone until the store is back.
// Nothing aborts, and the finished rank files one record.
func TestUncoordFinishedRankRetriesLocally(t *testing.T) {
	cfg := testDefaults()
	cfg.Protocol = protocol.Uncoordinated
	mpiCfg := mpi.DefaultConfig()
	mpiCfg.LogMessages = true
	c := finishedRankUnderOutage(t, cfg, mpiCfg)
	if c.co.Aborts() != 0 {
		t.Fatalf("aborts = %d, want 0 (uncoordinated writes retry locally)", c.co.Aborts())
	}
	rec := c.reports(t)[0].Records[3]
	if rec.WriteStart > 2500*sim.Millisecond || rec.WriteEnd < 3500*sim.Millisecond {
		t.Fatalf("finished rank wrote %v..%v; its write should span the outage", rec.WriteStart, rec.WriteEnd)
	}
}
