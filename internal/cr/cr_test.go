package cr

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/storage/tier"
)

const testMB = 1 << 20

// testCluster bundles a simulation with storage, fabric, job, and C/R.
type testCluster struct {
	k  *sim.Kernel
	st *storage.System
	h  *tier.Hierarchy
	j  *mpi.Job
	co *Coordinator
}

// testConfig is the C/R configuration of a test cluster plus the image size
// every rank's FootprintFn reports.
type testConfig struct {
	Config
	Footprint int64
}

// testDefaults is DefaultConfig with 64 MB images.
func testDefaults() testConfig { return testConfig{DefaultConfig(), 64 * testMB} }

// buildCluster wires storage, fabric, job, and coordinator on k.
func buildCluster(k *sim.Kernel, n int, cfg testConfig) (*testCluster, error) {
	return buildClusterMPI(k, n, cfg, mpi.DefaultConfig())
}

// buildClusterMPI is buildCluster with a non-default library configuration
// (the uncoordinated protocol needs message logging).
func buildClusterMPI(k *sim.Kernel, n int, cfg testConfig, mpiCfg mpi.Config) (*testCluster, error) {
	return buildStack(k, n, cfg, mpiCfg, tier.ModeCentral)
}

// buildStack wires the whole stack with the given storage mode.
func buildStack(k *sim.Kernel, n int, cfg testConfig, mpiCfg mpi.Config, mode tier.Mode) (*testCluster, error) {
	st, err := storage.New(k, storage.Config{AggregateBW: 100 * testMB, ClientBW: 100 * testMB})
	if err != nil {
		return nil, err
	}
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		return nil, err
	}
	j, err := mpi.NewJob(k, f, mpiCfg, n)
	if err != nil {
		return nil, err
	}
	h, err := tier.NewHierarchy(k, tier.Config{Mode: mode}, n, st, ib.PaperConfig().LinkBW)
	if err != nil {
		return nil, err
	}
	co, err := New(k, j, h, cfg.Config)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		co.Controller(i).FootprintFn = func() int64 { return cfg.Footprint }
	}
	return &testCluster{k: k, st: st, h: h, j: j, co: co}, nil
}

// newCluster builds an n-rank cluster with 100 MB/s aggregate storage (no
// per-client cap below that) and the given C/R config.
func newCluster(t testing.TB, n int, cfg testConfig) *testCluster {
	t.Helper()
	c, err := buildCluster(sim.NewKernel(1), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newStagingCluster is newCluster with Section 2.1 local-disk staging
// installed: snapshots acknowledge at the node's own 60 MB/s disk and drain
// to the 100 MB/s central service in the background.
func newStagingCluster(t testing.TB, n int, cfg testConfig) (*testCluster, *tier.Hierarchy) {
	t.Helper()
	c, err := buildStack(sim.NewKernel(1), n, cfg, mpi.DefaultConfig(), tier.ModeLocal)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.h
}

// noAppState is a capture function for workloads without application
// state: installing it selects the polled discipline.
func noAppState(int) ([]byte, error) { return nil, nil }

// computeLoop is a pure-compute workload body: iters chunks of the given
// duration.
func computeLoop(iters int, chunk sim.Time) func(*mpi.Env) {
	return func(e *mpi.Env) {
		for i := 0; i < iters; i++ {
			e.Compute(chunk)
		}
	}
}

// reports fetches the coordinator's completed cycle reports, failing the
// test if a report is read before its cycle finished.
func (c *testCluster) reports(t *testing.T) []*CycleReport {
	t.Helper()
	reps, err := c.co.Reports()
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

func runSim(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStrayOOBFailsRun: out-of-band traffic that is not a checkpoint message
// fails the run, at a rank's controller as at the coordinator.
func TestStrayOOBFailsRun(t *testing.T) {
	for _, tc := range []struct {
		dst  int
		want string
	}{
		{0, "cr: rank 0's controller got unexpected message string from 1"},
		{CoordinatorID, "cr: coordinator got unexpected message string from 1"},
	} {
		c := newCluster(t, 2, testDefaults())
		c.j.LaunchAll(computeLoop(4, 100*sim.Millisecond))
		if err := c.j.Rank(1).Endpoint().SendOOB(tc.dst, "stray"); err != nil {
			t.Fatal(err)
		}
		if err := c.k.Run(); err == nil || err.Error() != tc.want {
			t.Errorf("OOB to %d: Run() = %v, want %q", tc.dst, err, tc.want)
		}
		c.k.Shutdown()
	}
}

func TestRegularProtocolBasics(t *testing.T) {
	const n = 4
	cfg := testDefaults()
	cfg.Footprint = 100 * testMB
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(50, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(2 * sim.Second)
	runSim(t, c.k)

	reps := c.reports(t)
	if len(reps) != 1 {
		t.Fatalf("reports: %d", len(reps))
	}
	rep := reps[0]
	if len(rep.Groups) != 1 || len(rep.Groups[0]) != n {
		t.Fatalf("regular protocol groups: %v", rep.Groups)
	}
	// Equation (2a): individual time ~ N*S/B = 4*100/100 = 4 s.
	want := 4 * sim.Second
	for i, rec := range rep.Records {
		if math.Abs((rec.Individual() - want).Seconds()) > 0.2 {
			t.Fatalf("rank %d individual %v, eq(2a) predicts %v", i, rec.Individual(), want)
		}
		// Phase ordering invariants.
		if !(rec.SafePointAt <= rec.GoAt && rec.GoAt <= rec.TeardownDone &&
			rec.TeardownDone <= rec.WriteStart && rec.WriteStart < rec.WriteEnd &&
			rec.WriteEnd <= rec.ResumeAt) {
			t.Fatalf("rank %d phases out of order: %+v", i, rec)
		}
	}
	// Equation (2b): total ~ individual for the regular protocol.
	if math.Abs((rep.Total() - want).Seconds()) > 0.2 {
		t.Fatalf("total %v, want ~%v", rep.Total(), want)
	}
	// Storage dominates the delay (paper: >95%).
	if rep.StorageShare() < 0.95 {
		t.Fatalf("storage share %.3f, want > 0.95", rep.StorageShare())
	}
	if !c.co.Snapshots().Complete(1) {
		t.Fatal("global checkpoint not marked complete")
	}
}

func TestGroupBasedScheduling(t *testing.T) {
	const n, g = 8, 2
	cfg := testDefaults()
	cfg.GroupSize = g
	cfg.Footprint = 50 * testMB
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(80, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	runSim(t, c.k)

	rep := c.reports(t)[0]
	if len(rep.Groups) != n/g {
		t.Fatalf("groups: %v", rep.Groups)
	}
	// Equation (3a): individual ~ g*S/B = 2*50/100 = 1 s.
	wantInd := sim.Second
	for i, rec := range rep.Records {
		if math.Abs((rec.Individual() - wantInd).Seconds()) > 0.3 {
			t.Fatalf("rank %d individual %v, eq(3a) predicts %v", i, rec.Individual(), wantInd)
		}
	}
	// Equation (3b): total ~ (N/g) * individual.
	wantTotal := sim.Time(n/g) * wantInd
	if math.Abs((rep.Total() - wantTotal).Seconds()) > 0.5 {
		t.Fatalf("total %v, eq(3b) predicts %v", rep.Total(), wantTotal)
	}
	// Groups write sequentially: storage concurrency never exceeds the
	// group size.
	if c.st.MaxConcurrent() > g {
		t.Fatalf("storage concurrency %d exceeds group size %d", c.st.MaxConcurrent(), g)
	}
	// And groups proceed in order: each group's earliest write starts no
	// earlier than the previous group's last write ends.
	groupStart := make([]sim.Time, n/g)
	groupEnd := make([]sim.Time, n/g)
	for i := range groupStart {
		groupStart[i] = sim.Time(math.MaxInt64)
	}
	for _, rec := range rep.Records {
		if rec.WriteStart < groupStart[rec.Group] {
			groupStart[rec.Group] = rec.WriteStart
		}
		if rec.WriteEnd > groupEnd[rec.Group] {
			groupEnd[rec.Group] = rec.WriteEnd
		}
	}
	for gi := 1; gi < n/g; gi++ {
		if groupStart[gi] < groupEnd[gi-1]-10*sim.Millisecond {
			t.Fatalf("group %d started writing at %v before group %d finished at %v",
				gi, groupStart[gi], gi-1, groupEnd[gi-1])
		}
	}
}

func TestEffectiveDelayReduction(t *testing.T) {
	// The headline effect: on a compute-heavy workload the group-based
	// protocol's effective delay is far below the regular protocol's.
	const n = 8
	const iters, chunk = 100, 100 * sim.Millisecond
	baseline := func() sim.Time {
		c := newCluster(t, n, testDefaults())
		c.j.LaunchAll(computeLoop(iters, chunk))
		runSim(t, c.k)
		return c.j.FinishTime()
	}()

	delay := func(groupSize int) sim.Time {
		cfg := testDefaults()
		cfg.GroupSize = groupSize
		cfg.Footprint = 100 * testMB
		c := newCluster(t, n, cfg)
		c.j.LaunchAll(computeLoop(iters, chunk))
		c.co.ScheduleCheckpoint(2 * sim.Second)
		runSim(t, c.k)
		return c.j.FinishTime() - baseline
	}

	regular := delay(0) // all at once
	grouped := delay(2)
	// Regular: everyone stalls for N*S/B = 8 s.
	if math.Abs((regular - 8*sim.Second).Seconds()) > 0.5 {
		t.Fatalf("regular effective delay %v, want ~8s", regular)
	}
	// Group-based: each rank stalls ~g*S/B = 2 s while others compute.
	if grouped > regular/2 {
		t.Fatalf("group-based delay %v not well below regular %v", grouped, regular)
	}
	if grouped < sim.Second {
		t.Fatalf("group-based delay %v implausibly low (< individual time)", grouped)
	}
}

// firstI64 decodes the first int64 of a received message; a malformed one
// fails the run and reads as 0.
func firstI64(e *mpi.Env, b []byte) int64 {
	v, err := mpi.BytesToI64(b)
	if err != nil {
		e.Proc().K().Fail(err)
		return 0
	}
	return v[0]
}

// ringWorkload exchanges eager messages around a ring each iteration and
// records the sum of received values.
func ringWorkload(n, iters int, chunk sim.Time, sums []int64) func(*mpi.Env) {
	return func(e *mpi.Env) {
		w := e.World()
		me := e.Rank()
		right, left := (me+1)%n, (me-1+n)%n
		var sum int64
		for i := 0; i < iters; i++ {
			e.Compute(chunk)
			v, _ := e.SendrecvWord(w, right, 1, uint64(me*1000+i), left, 1)
			sum += int64(v)
		}
		sums[me] = sum
	}
}

func ringExpected(n, iters int, me int) int64 {
	left := (me - 1 + n) % n
	var sum int64
	for i := 0; i < iters; i++ {
		sum += int64(left*1000 + i)
	}
	return sum
}

func TestApplicationCorrectAcrossCheckpoint(t *testing.T) {
	const n, iters = 6, 40
	for _, gs := range []int{0, 1, 2, 3} {
		cfg := testDefaults()
		cfg.GroupSize = gs
		cfg.Footprint = 20 * testMB
		c := newCluster(t, n, cfg)
		sums := make([]int64, n)
		c.j.LaunchAll(ringWorkload(n, iters, 50*sim.Millisecond, sums))
		c.co.ScheduleCheckpoint(500 * sim.Millisecond)
		runSim(t, c.k)
		for me := 0; me < n; me++ {
			if sums[me] != ringExpected(n, iters, me) {
				t.Fatalf("groupsize=%d rank %d sum %d, want %d (messages lost or duplicated)",
					gs, me, sums[me], ringExpected(n, iters, me))
			}
		}
		if len(c.reports(t)) != 1 {
			t.Fatalf("groupsize=%d: cycle did not complete", gs)
		}
	}
}

func TestCrossGroupTrafficDeferred(t *testing.T) {
	// Rank 0 (group 0) checkpoints first; rank 1 (group 1) sends to it
	// while it is checkpointing. The messages must be buffered and arrive
	// intact after both groups checkpoint.
	const n = 2
	cfg := testDefaults()
	cfg.GroupSize = 1
	cfg.Footprint = 100 * testMB // 1 s write each
	c := newCluster(t, n, cfg)
	var got []byte
	c.j.Launch(0, func(e *mpi.Env) {
		e.Compute(500 * sim.Millisecond)
		got, _ = e.Recv(e.World(), 1, 0)
		e.Compute(3 * sim.Second)
	})
	c.j.Launch(1, func(e *mpi.Env) {
		e.Compute(600 * sim.Millisecond) // rank 0 is checkpointing by now
		e.Send(e.World(), 0, 0, []byte("cross-group"))
		e.Compute(3 * sim.Second)
	})
	c.co.ScheduleCheckpoint(100 * sim.Millisecond)
	runSim(t, c.k)
	if string(got) != "cross-group" {
		t.Fatalf("deferred message corrupted: %q", got)
	}
	if c.j.Rank(1).Stats().MsgsBuffered == 0 {
		t.Fatal("cross-group eager message was not buffered")
	}
	rep := c.reports(t)[0]
	// Rank 1's message was sent at ~600 ms, while rank 0 was checkpointing
	// (from ~100 ms to ~1.1 s); delivery must happen after rank 1 also
	// saved (both sides of the recovery line).
	r1Saved := rep.Records[1].WriteEnd
	if rep.Records[0].WriteEnd > r1Saved {
		t.Fatal("test premise broken: rank 0 should checkpoint first")
	}
}

func TestConnectionsRebuiltAfterCycle(t *testing.T) {
	const n = 4
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 10 * testMB
	c := newCluster(t, n, cfg)
	sums := make([]int64, n)
	c.j.LaunchAll(ringWorkload(n, 30, 50*sim.Millisecond, sums))
	c.co.ScheduleCheckpoint(300 * sim.Millisecond)
	runSim(t, c.k)
	// After the run, ring neighbours must have re-established connections.
	for me := 0; me < n; me++ {
		ep := c.j.Rank(me).Endpoint()
		if ep.NumConns() == 0 {
			t.Fatalf("rank %d has no connections after the cycle", me)
		}
		ep.EachConn(func(p int, state ib.ConnState) {
			if state != ib.StateConnected {
				t.Fatalf("rank %d conn to %d in state %v", me, p, state)
			}
		})
	}
}

func TestConnectionsClosedAtSnapshot(t *testing.T) {
	// The channel-quiescence invariant: when a rank starts its storage
	// write, it must hold no established connections and no unprocessed
	// in-band packets.
	const n = 4
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 10 * testMB
	c := newCluster(t, n, cfg)
	violations := 0
	for i := 0; i < n; i++ {
		i := i
		ctl := c.co.Controller(i)
		origFn := ctl.FootprintFn
		ctl.FootprintFn = func() int64 {
			ep := c.j.Rank(i).Endpoint()
			ep.EachConn(func(_ int, state ib.ConnState) {
				switch state {
				case ib.StateConnected, ib.StateAccepting, ib.StateDraining, ib.StateDisconnecting:
					violations++
				}
			})
			if ep.PendingWork() {
				violations++
			}
			return origFn()
		}
	}
	sums := make([]int64, n)
	c.j.LaunchAll(ringWorkload(n, 30, 50*sim.Millisecond, sums))
	c.co.ScheduleCheckpoint(300 * sim.Millisecond)
	runSim(t, c.k)
	if violations != 0 {
		t.Fatalf("%d channel-quiescence violations at snapshot time", violations)
	}
}

func TestHelperThreadAblation(t *testing.T) {
	// A member must tear down a connection to a passive peer that computes
	// in long chunks. With the helper thread the flush completes within the
	// helper interval; without it the teardown stalls until the peer's next
	// library call.
	teardown := func(helper bool) sim.Time {
		cfg := testDefaults()
		cfg.GroupSize = 1
		cfg.HelperEnabled = helper
		cfg.Footprint = 1 * testMB
		c := newCluster(t, 2, cfg)
		// Establish a connection, then rank 1 computes one long chunk.
		c.j.Launch(0, func(e *mpi.Env) {
			e.Send(e.World(), 1, 0, []byte("warm"))
			e.Compute(10 * sim.Second)
		})
		c.j.Launch(1, func(e *mpi.Env) {
			e.Recv(e.World(), 0, 0)
			e.Compute(10 * sim.Second) // passive during rank 0's checkpoint
		})
		c.co.ScheduleCheckpoint(500 * sim.Millisecond)
		runSim(t, c.k)
		rec := c.reports(t)[0].Records[0]
		return rec.TeardownDone - rec.GoAt
	}
	with := teardown(true)
	without := teardown(false)
	if with > 250*sim.Millisecond {
		t.Fatalf("teardown with helper took %v, want <= ~2 helper intervals", with)
	}
	if without < 2*sim.Second {
		t.Fatalf("teardown without helper took only %v; ablation shows no effect", without)
	}
}

// TestResolveProtocol pins what every configuration spelling resolves to on a
// 4-rank job, × GroupSize {0, 2, N} × Dynamic, without and with message
// logging: a kind, or the exact rejection. The empty value and the whole-job
// spelling resolve to the group protocol; wholejob refuses options that
// would form anything but one group.
func TestResolveProtocol(t *testing.T) {
	const (
		group, uncoord = "group", "uncoord"
		wjDynamic      = "protocol: whole-job protocol does not form dynamic groups"
		wjPartial      = "protocol: whole-job protocol cannot honor group size 2 (< 4 ranks); use the group protocol"
		ucDynamic      = "protocol: uncoordinated protocol does not form groups; drop Dynamic"
		ucPartial      = "protocol: uncoordinated protocol does not form groups; drop GroupSize 2"
		ucNoLog        = "protocol: uncoordinated protocol requires sender-based message logging; set mpi.Config.LogMessages"
	)
	cases := []struct {
		spelling       protocol.Kind
		n, groupSize   int
		dynamic        bool
		plain, logging string // the resolved kind or the error, without and with logging
	}{
		{"", 4, 0, false, group, group},
		{"", 4, 0, true, group, group},
		{"", 4, 2, false, group, group},
		{"", 4, 2, true, group, group},
		{"", 4, 4, false, group, group},
		{"", 4, 4, true, group, group},
		{protocol.Group, 4, 0, false, group, group},
		{protocol.Group, 4, 0, true, group, group},
		{protocol.Group, 4, 2, false, group, group},
		{protocol.Group, 4, 2, true, group, group},
		{protocol.Group, 4, 4, false, group, group},
		{protocol.Group, 4, 4, true, group, group},
		{protocol.WholeJob, 4, 0, false, group, group},
		{protocol.WholeJob, 4, 0, true, wjDynamic, wjDynamic},
		{protocol.WholeJob, 4, 2, false, wjPartial, wjPartial},
		{protocol.WholeJob, 4, 2, true, wjDynamic, wjDynamic},
		{protocol.WholeJob, 4, 4, false, group, group},
		{protocol.WholeJob, 4, 4, true, wjDynamic, wjDynamic},
		{protocol.Uncoordinated, 4, 0, false, ucNoLog, uncoord},
		{protocol.Uncoordinated, 4, 0, true, ucDynamic, ucDynamic},
		{protocol.Uncoordinated, 4, 2, false, ucPartial, ucPartial},
		{protocol.Uncoordinated, 4, 2, true, ucDynamic, ucDynamic},
		{protocol.Uncoordinated, 4, 4, false, ucNoLog, uncoord},
		{protocol.Uncoordinated, 4, 4, true, ucDynamic, ucDynamic},
		{"", 0, 0, false, "protocol: group protocol needs at least one rank, got 0", "protocol: group protocol needs at least one rank, got 0"},
		{protocol.WholeJob, 0, 0, false, "protocol: whole-job protocol needs at least one rank, got 0", "protocol: whole-job protocol needs at least one rank, got 0"},
		{"chandy", 4, 0, false, `protocol: unknown protocol "chandy" (have [group uncoord])`, `protocol: unknown protocol "chandy" (have [group uncoord])`},
	}
	for _, c := range cases {
		cfg := Config{Protocol: c.spelling, GroupSize: c.groupSize, Dynamic: c.dynamic}
		for i, want := range []string{c.plain, c.logging} {
			kind, err := cfg.ResolveProtocol(c.n, i == 1)
			got := string(kind)
			if err != nil {
				got = err.Error()
			}
			if got != want {
				t.Errorf("%q n=%d g=%d dynamic=%v logging=%v: got %q, want %q", c.spelling, c.n, c.groupSize, c.dynamic, i == 1, got, want)
			}
		}
	}
}

// TestFinishedRankCheckpoints: a rank whose body returned before the request
// is checkpointed from kernel events, under the group protocol spelled as
// wholejob (one group) and under the uncoordinated one, and its record is as
// well-formed as a live rank's.
func TestFinishedRankCheckpoints(t *testing.T) {
	const n = 3
	for _, kind := range []protocol.Kind{protocol.WholeJob, protocol.Uncoordinated} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := testDefaults()
			cfg.Protocol = kind
			cfg.Footprint = 10 * testMB
			mpiCfg := mpi.DefaultConfig()
			mpiCfg.LogMessages = kind == protocol.Uncoordinated
			c, err := buildClusterMPI(sim.NewKernel(1), n, cfg, mpiCfg)
			if err != nil {
				t.Fatal(err)
			}
			c.j.Launch(0, func(e *mpi.Env) {
				e.Compute(100 * sim.Millisecond) // finishes before the checkpoint
			})
			c.j.Launch(1, computeLoop(30, 100*sim.Millisecond))
			c.j.Launch(2, computeLoop(30, 100*sim.Millisecond))
			c.co.ScheduleCheckpoint(sim.Second)
			runSim(t, c.k)
			reps := c.reports(t)
			if len(reps) != 1 {
				t.Fatal("cycle did not complete with a finished rank")
			}
			if line := c.co.Protocol().RestartLine(c.co.Snapshots()); line.Empty() || line.Snaps[0] == nil {
				t.Fatal("finished rank has no restartable snapshot")
			}
			for r, rec := range reps[0].Records {
				at := []sim.Time{rec.SafePointAt, rec.GoAt, rec.TeardownDone, rec.WriteStart, rec.WriteEnd, rec.ResumeAt}
				for i := 1; i < len(at); i++ {
					if at[i] < at[i-1] {
						t.Fatalf("rank %d record out of order: %+v", r, rec)
					}
				}
				if rec.SafePointAt < sim.Second || rec.Footprint != 10*testMB {
					t.Fatalf("rank %d record: %+v", r, rec)
				}
			}
			if rec := reps[0].Records[0]; rec.ResumeAt != rec.WriteEnd {
				t.Fatalf("finished rank waited for its group: %+v", rec)
			}
		})
	}
}

func TestTwoSequentialCheckpoints(t *testing.T) {
	const n = 4
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 10 * testMB
	c := newCluster(t, n, cfg)
	sums := make([]int64, n)
	c.j.LaunchAll(ringWorkload(n, 60, 50*sim.Millisecond, sums))
	c.co.ScheduleCheckpoint(300 * sim.Millisecond)
	c.co.ScheduleCheckpoint(2 * sim.Second)
	runSim(t, c.k)
	if len(c.reports(t)) != 2 {
		t.Fatalf("cycles completed: %d", len(c.reports(t)))
	}
	for me := 0; me < n; me++ {
		if sums[me] != ringExpected(n, 60, me) {
			t.Fatalf("rank %d corrupted across two checkpoints", me)
		}
	}
	if !c.co.Snapshots().Complete(2) {
		t.Fatal("second epoch incomplete")
	}
	if e, _, _ := c.co.Snapshots().LatestVerified(); e != 2 {
		t.Fatalf("latest epoch %d", e)
	}
}

func TestOverlappingCheckpointFailsRun(t *testing.T) {
	cfg := testDefaults()
	cfg.Footprint = 100 * testMB
	c := newCluster(t, 2, cfg)
	c.j.LaunchAll(computeLoop(50, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.co.ScheduleCheckpoint(sim.Second + sim.Millisecond) // overlaps
	err := c.k.Run()
	if err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("overlapping cycles not rejected: %v", err)
	}
}

func TestDynamicGroupsEndToEnd(t *testing.T) {
	// Ranks communicate in pairs; a dynamic-formation checkpoint should
	// schedule those pairs as groups and the application must stay correct.
	const n, iters = 6, 40
	cfg := testDefaults()
	cfg.Dynamic = true
	cfg.GroupSize = 2
	cfg.Footprint = 10 * testMB
	c := newCluster(t, n, cfg)
	results := make([]int64, n)
	c.j.LaunchAll(func(e *mpi.Env) {
		w := e.World()
		me := e.Rank()
		partner := me ^ 1
		var sum int64
		for i := 0; i < iters; i++ {
			e.Compute(50 * sim.Millisecond)
			v, _ := e.SendrecvWord(w, partner, 1, uint64(me+i), partner, 1)
			sum += int64(v)
		}
		results[me] = sum
	})
	c.co.ScheduleCheckpoint(800 * sim.Millisecond)
	runSim(t, c.k)
	rep := c.reports(t)[0]
	if len(rep.Groups) != 3 {
		t.Fatalf("dynamic groups: %v", rep.Groups)
	}
	for _, g := range rep.Groups {
		if len(g) != 2 || g[0]^1 != g[1] {
			t.Fatalf("dynamic groups did not recover pairs: %v", rep.Groups)
		}
	}
	for me := 0; me < n; me++ {
		partner := me ^ 1
		var want int64
		for i := 0; i < iters; i++ {
			want += int64(partner + i)
		}
		if results[me] != want {
			t.Fatalf("rank %d result %d, want %d", me, results[me], want)
		}
	}
}

// Property: for random group sizes, checkpoint times, and message sizes, the
// ring workload completes with correct sums and the checkpoint cycle
// completes.
func TestQuickProtocolConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		gs := rng.Intn(n + 1)
		iters := rng.Intn(20) + 10
		cfg := testDefaults()
		cfg.GroupSize = gs
		cfg.Footprint = int64(rng.Intn(20)+1) * testMB
		cfg.HelperEnabled = rng.Intn(4) != 0
		k := sim.NewKernel(seed)
		c, err := buildCluster(k, n, cfg)
		if err != nil {
			return false
		}
		j, co := c.j, c.co
		sums := make([]int64, n)
		j.LaunchAll(ringWorkload(n, iters, sim.Time(rng.Intn(80)+20)*sim.Millisecond, sums))
		co.ScheduleCheckpoint(sim.Time(rng.Intn(900)+100) * sim.Millisecond)
		if err := k.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for me := 0; me < n; me++ {
			if sums[me] != ringExpected(n, iters, me) {
				return false
			}
		}
		reps, err := co.Reports()
		return err == nil && len(reps) == 1 && co.Snapshots().Complete(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// epochTracer pairs every wire-level post with its delivery (per-pair FIFO)
// and checks the recovery-line invariant: the sender's checkpoint epoch when
// a packet is posted equals the receiver's epoch when it is processed. A
// violation would mean a message crossed the recovery line — lost or
// duplicated on restart.
type epochTracer struct {
	c          *testCluster
	queues     map[[2]int][]int
	posts      int
	deliveries int
	violations int
}

func installEpochTracer(c *testCluster) *epochTracer {
	tr := &epochTracer{c: c, queues: make(map[[2]int][]int)}
	for i := 0; i < c.j.Size(); i++ {
		i := i
		rank := c.j.Rank(i)
		rank.PostHook = func(dst int) {
			tr.posts++
			key := [2]int{i, dst}
			tr.queues[key] = append(tr.queues[key], c.co.Controller(i).epoch)
		}
		rank.DeliverHook = func(src int) {
			tr.deliveries++
			key := [2]int{src, i}
			q := tr.queues[key]
			if len(q) == 0 {
				tr.violations++
				return
			}
			sendEpoch := q[0]
			tr.queues[key] = q[1:]
			if sendEpoch != c.co.Controller(i).epoch {
				tr.violations++
			}
		}
	}
	return tr
}

func TestEpochInvariantSignalMode(t *testing.T) {
	const n, iters = 6, 50
	for _, gs := range []int{0, 1, 2, 3} {
		cfg := testDefaults()
		cfg.GroupSize = gs
		cfg.Footprint = 30 * testMB
		c := newCluster(t, n, cfg)
		tr := installEpochTracer(c)
		sums := make([]int64, n)
		c.j.LaunchAll(ringWorkload(n, iters, 50*sim.Millisecond, sums))
		c.co.ScheduleCheckpoint(400 * sim.Millisecond)
		c.co.ScheduleCheckpoint(3 * sim.Second)
		runSim(t, c.k)
		if tr.violations != 0 {
			t.Fatalf("groupsize=%d: %d recovery-line violations (%d posts, %d deliveries)",
				gs, tr.violations, tr.posts, tr.deliveries)
		}
		if tr.posts == 0 || tr.posts != tr.deliveries {
			t.Fatalf("groupsize=%d: tracer accounting broken: %d posts, %d deliveries",
				gs, tr.posts, tr.deliveries)
		}
	}
}

// Property: the recovery-line invariant holds for random workloads, group
// sizes, helper settings, and checkpoint times.
func TestQuickEpochInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		cfg := testDefaults()
		cfg.GroupSize = rng.Intn(n + 1)
		cfg.Footprint = int64(rng.Intn(30)+1) * testMB
		cfg.HelperEnabled = rng.Intn(3) != 0
		k := sim.NewKernel(seed)
		c, err := buildCluster(k, n, cfg)
		if err != nil {
			return false
		}
		j, co := c.j, c.co
		tr := installEpochTracer(c)
		sums := make([]int64, n)
		j.LaunchAll(ringWorkload(n, rng.Intn(25)+10, sim.Time(rng.Intn(80)+20)*sim.Millisecond, sums))
		co.ScheduleCheckpoint(sim.Time(rng.Intn(900)+100) * sim.Millisecond)
		if err := k.Run(); err != nil {
			return false
		}
		return tr.violations == 0 && tr.posts == tr.deliveries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalStagingCheckpointing(t *testing.T) {
	const n = 4
	for _, gs := range []int{0, 2} {
		cfg := testDefaults()
		cfg.GroupSize = gs
		cfg.Footprint = 60 * testMB // 1 s on the node's own 60 MB/s disk
		c, _ := newStagingCluster(t, n, cfg)
		c.j.LaunchAll(computeLoop(80, 100*sim.Millisecond))
		c.co.ScheduleCheckpoint(sim.Second)
		runSim(t, c.k)
		rep := c.reports(t)[0]
		// Each rank's downtime is the local write (~1 s), independent of the
		// group size; the shared-storage contention moves to the drains.
		for i, rec := range rep.Records {
			if d := rec.Individual(); d < 900*sim.Millisecond || d > 1500*sim.Millisecond {
				t.Fatalf("group size %d: rank %d staged downtime %v, want ~1s local write", gs, i, d)
			}
		}
		// The epoch commits at the acknowledgement; it stops depending on the
		// nodes that took it only when all drains complete: 4 ranks x 60 MB
		// over 100 MB/s shared storage = 2.4 s of draining.
		if !c.co.Snapshots().Complete(1) {
			t.Fatalf("group size %d: epoch never committed", gs)
		}
		if w := rep.VulnerabilityWindow(); w <= 0 {
			t.Fatalf("group size %d: vulnerability window %v, want > 0 under staging", gs, w)
		}
		if rep.DrainedAt <= rep.DoneAt {
			t.Fatalf("group size %d: DrainedAt %v must lag DoneAt %v under staging", gs, rep.DrainedAt, rep.DoneAt)
		}
	}
}

func TestLocalStagingDrainGatesRestartLine(t *testing.T) {
	// While a staged checkpoint drains, its only copies sit on the nodes that
	// took it: a process crash restarts from them, a node loss falls back to
	// the previous line, and once the drain lands the central copy covers
	// both.
	const n = 2
	cfg := testDefaults()
	cfg.GroupSize = 1
	cfg.Footprint = 60 * testMB
	c, h := newStagingCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(200, 100*sim.Millisecond))
	// Cycle 1 acks ~3 s and is drained by ~4.5 s. Cycle 2's two 1 s local
	// writes ack by ~12 s; rank 0's drain (60 MB at up to 100 MB/s) starts at
	// ~11 s and both have landed well before 16 s.
	c.co.ScheduleCheckpoint(sim.Second)
	c.co.ScheduleCheckpoint(10 * sim.Second)
	snaps := c.co.Snapshots()
	// line returns the restart line's epoch and the level each rank reads it
	// back from.
	line := func() (int, []tier.Level) {
		e, s, _ := snaps.LatestVerified()
		_, from, err := h.ReadBack(c.k.Now(), s)
		if err != nil {
			t.Error(err)
		}
		return e, from
	}
	local, central := []tier.Level{tier.Local, tier.Local}, []tier.Level{tier.Central, tier.Central}
	c.k.At(12100*sim.Millisecond, func() {
		if !snaps.Complete(2) || h.ColdAt(2) != 0 {
			t.Errorf("test premise: at 12.1 s epoch 2 must be committed (%v) and still draining (cold at %v)",
				snaps.Complete(2), h.ColdAt(2))
		}
		// Process crash mid-drain: every rank's local copy survives.
		if e, from := line(); e != 2 || !slices.Equal(from, local) {
			t.Errorf("mid-drain crash: line %d from %v, want epoch 2 from local/local", e, from)
		}
		// Node 1 lost mid-drain: its image of epoch 2 existed nowhere else.
		snaps.DropNodeReplicas(1)
		if e, from := line(); e != 1 || !slices.Equal(from, central) {
			t.Errorf("mid-drain node loss: line %d from %v, want epoch 1 from central/central", e, from)
		}
	})
	c.k.At(16*sim.Second, func() {
		if h.ColdAt(2) == 0 {
			t.Error("test premise: epoch 2 must be drained at 16 s")
		}
		// Node 0 lost after the drain: epoch 2 recovers from central.
		snaps.DropNodeReplicas(0)
		if e, from := line(); e != 2 || from[0] != tier.Central {
			t.Errorf("post-drain node loss: line %d, rank 0 from %v; want epoch 2 from central", e, from)
		}
	})
	runSim(t, c.k)
}

func TestFailureMidCycleFallsBackToPreviousEpoch(t *testing.T) {
	// If the job dies while checkpoint 2 is being taken, restart must use
	// epoch 1 (the last COMPLETE global checkpoint).
	const n = 4
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 50 * testMB
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(100, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)     // completes ~2s
	c.co.ScheduleCheckpoint(5 * sim.Second) // in flight at the failure
	if err := c.k.RunUntil(5500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.co.Snapshots().Complete(2) {
		t.Fatal("test premise broken: cycle 2 already finished at 5.5s")
	}
	epoch, snaps, _ := c.co.Snapshots().LatestVerified()
	if epoch != 1 || len(snaps) != n {
		t.Fatalf("mid-cycle failure: LatestVerified() = epoch %d with %d snaps, want epoch 1", epoch, len(snaps))
	}
	//lint:allow-simdeterminism order-independent verification; every entry is checked
	for _, s := range snaps {
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTraceTimeline(t *testing.T) {
	const n = 4
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 20 * testMB
	c := newCluster(t, n, cfg)
	mem := &obs.MemorySink{}
	c.co.SetObs(obs.NewBus(mem))
	c.j.LaunchAll(computeLoop(40, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	runSim(t, c.k)
	// The coordinator's cycle events appear in protocol order on the system
	// track.
	var cycleEvents []obs.Kind
	for _, e := range mem.ByLayer(obs.LayerCR) {
		if e.Rank == -1 {
			cycleEvents = append(cycleEvents, e.What)
		}
	}
	want := []obs.Kind{obs.KindRequest, obs.KindTurn, obs.KindGroupDone, obs.KindTurn, obs.KindGroupDone, obs.KindCycleDone}
	if !slices.Equal(cycleEvents, want) {
		t.Fatalf("cycle events %v, want %v", cycleEvents, want)
	}
	// Every rank walked through the full phase sequence, with Begin/End
	// spans properly paired.
	type step struct {
		t obs.Type
		k obs.Kind
	}
	wantPhases := []step{
		{obs.Instant, obs.KindSafePoint},
		{obs.Begin, obs.KindCkptSync}, {obs.End, obs.KindCkptSync},
		{obs.Begin, obs.KindCkptTeardown}, {obs.End, obs.KindCkptTeardown},
		{obs.Begin, obs.KindCkptWrite}, {obs.End, obs.KindCkptWrite},
		{obs.Begin, obs.KindCkptResumeWait}, {obs.End, obs.KindCkptResumeWait},
		{obs.Instant, obs.KindResume},
	}
	for r := 0; r < n; r++ {
		var phases []step
		for _, e := range mem.ByLayer(obs.LayerCR) {
			if e.Rank == r {
				phases = append(phases, step{e.Type, e.What})
			}
		}
		if !slices.Equal(phases, wantPhases) {
			t.Fatalf("rank %d phases %v, want %v", r, phases, wantPhases)
		}
	}
}

func TestIncrementalSnapshotSizing(t *testing.T) {
	const n = 2
	cfg := testDefaults()
	cfg.GroupSize = 0
	cfg.Footprint = 100 * testMB
	cfg.Incremental = true
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(120, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.co.ScheduleCheckpoint(7 * sim.Second) // ~4s after the first completes
	runSim(t, c.k)
	reps := c.reports(t)
	if len(reps) != 2 {
		t.Fatalf("cycles: %d", len(reps))
	}
	first := reps[0].Records[0].Footprint
	second := reps[1].Records[0].Footprint
	if first != 100*testMB {
		t.Fatalf("first snapshot %d, want the full footprint", first)
	}
	// Second snapshot: 5% floor (5 MB) + ~6 MB dirtied in ~6s.
	if second >= first/4 || second < 5*testMB {
		t.Fatalf("second snapshot %d bytes, want a small incremental image", second)
	}
	// The second cycle is correspondingly much faster.
	if reps[1].Total() > reps[0].Total()/3 {
		t.Fatalf("incremental cycle %v not much faster than full %v",
			reps[1].Total(), reps[0].Total())
	}
}

func TestIncrementalCapsAtFullFootprint(t *testing.T) {
	const n = 1
	cfg := testDefaults()
	const full = 2 * testMB // less than dirtyBW re-dirties in ~4 s
	cfg.Footprint = full
	cfg.Incremental = true
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(80, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.co.ScheduleCheckpoint(5 * sim.Second)
	runSim(t, c.k)
	reps := c.reports(t)
	if got := reps[1].Records[0].Footprint; got != full {
		t.Fatalf("incremental image %d exceeded or undershot the full footprint", got)
	}
}

// TestReportsReadTooEarly: every rank files its record into its slot of the
// cycle's report, the last one as its group resumes after the cycle
// completed. Read from OnCycleDone, the last group's slots are still open
// and Reports says so; once the run quiesces every slot is filed.
func TestReportsReadTooEarly(t *testing.T) {
	const n = 4
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 10 * testMB
	c := newCluster(t, n, cfg)
	var early error
	c.co.OnCycleDone = func(*CycleReport) { _, early = c.co.Reports() }
	c.j.LaunchAll(computeLoop(30, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	runSim(t, c.k)
	if early == nil || !strings.Contains(early.Error(), "report read too early?") {
		t.Fatalf("Reports at cycle completion: err = %v, want the too-early error", early)
	}
	reps := c.reports(t)
	if len(reps) != 1 || len(reps[0].Records) != n {
		t.Fatalf("reports: %d, want one with %d records", len(reps), n)
	}
	for r, rec := range reps[0].Records {
		if rec.Cycle != reps[0].Cycle || rec.ResumeAt < rec.WriteEnd {
			t.Fatalf("rank %d record not filed for cycle %d: %+v", r, reps[0].Cycle, rec)
		}
	}
}

// TestNoFootprintFnTakesEmptyImage: a controller without a FootprintFn
// snapshots an empty image.
func TestNoFootprintFnTakesEmptyImage(t *testing.T) {
	c := newCluster(t, 2, testDefaults())
	c.co.Controller(1).FootprintFn = nil
	c.j.LaunchAll(computeLoop(30, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	runSim(t, c.k)
	if recs := c.reports(t)[0].Records; recs[0].Footprint != 64*testMB || recs[1].Footprint != 0 {
		t.Fatalf("footprints %d and %d, want 64 MB and 0", recs[0].Footprint, recs[1].Footprint)
	}
}

func TestReportAndControllerAccessors(t *testing.T) {
	const n = 2
	cfg := testDefaults()
	cfg.Footprint = 10 * testMB
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(30, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	if c.co.cur != nil {
		t.Fatal("active before the request")
	}
	if c.co.Controller(0).FootprintFn() != 10*testMB {
		t.Fatal("footprint accessor")
	}
	runSim(t, c.k)
	rep := c.reports(t)[0]
	if rep.MaxIndividual() < rep.MeanIndividual() {
		t.Fatal("max below mean")
	}
	if rep.VulnerabilityWindow() != 0 {
		t.Fatal("direct writes must have no vulnerability window")
	}
	rec := rep.Records[0]
	if rec.CoordinationTime() < 0 || rec.CoordinationTime() > rec.Individual() {
		t.Fatalf("coordination time %v out of range", rec.CoordinationTime())
	}
	ctl := c.co.Controller(1)
	if ctl.rank != c.j.Rank(1) || rep.Records[1].Cycle != rep.Cycle || ctl.epoch != 1 {
		t.Fatal("controller accessors")
	}
	if ctl.ConnMeta() != 1 {
		t.Fatalf("ConnMeta = %d, want the epoch", ctl.ConnMeta())
	}
}

func TestGanttShowsStaggering(t *testing.T) {
	const n = 4
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 50 * testMB
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(60, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	runSim(t, c.k)
	g := c.reports(t)[0].Gantt(60)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != n+1 {
		t.Fatalf("gantt lines: %d\n%s", len(lines), g)
	}
	// Group 0 (ranks 0,1) writes in the first half; group 1 in the second.
	firstW := func(line string) int { return strings.IndexByte(line, 'W') }
	if !(firstW(lines[1]) < firstW(lines[3])) {
		t.Fatalf("staggering not visible:\n%s", g)
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, "W") || !strings.Contains(line, ".") {
			t.Fatalf("row missing write or execution marks:\n%s", g)
		}
	}
}

// Property: mixed collectives (barrier, bcast, allreduce, allgather) stay
// correct through a group-based checkpoint in signal mode.
func TestQuickCollectivesAcrossCheckpoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 2
		gs := rng.Intn(n + 1)
		iters := rng.Intn(10) + 6
		cfg := testDefaults()
		cfg.GroupSize = gs
		cfg.Footprint = int64(rng.Intn(20)+1) * testMB
		k := sim.NewKernel(seed)
		c, err := buildCluster(k, n, cfg)
		if err != nil {
			return false
		}
		j, co := c.j, c.co
		ok := make([]bool, n)
		j.LaunchAll(func(e *mpi.Env) {
			w := e.World()
			me := e.Rank()
			good := true
			for i := 0; i < iters; i++ {
				e.Compute(sim.Time(rng.Intn(60)+20) * sim.Millisecond)
				switch i % 4 {
				case 0:
					e.Barrier(w)
				case 1:
					var in []byte
					if me == i%n {
						in = mpi.I64ToBytes([]int64{int64(i * 7)})
					}
					out := e.Bcast(w, i%n, in)
					if firstI64(e, out) != int64(i*7) {
						good = false
					}
				case 2:
					sum := e.AllreduceF64(w, []float64{float64(me)}, mpi.OpSum)
					if sum[0] != float64(n*(n-1))/2 {
						good = false
					}
				case 3:
					blocks := e.Allgather(w, mpi.I64ToBytes([]int64{int64(me + i)}))
					for src, b := range blocks {
						if firstI64(e, b) != int64(src+i) {
							good = false
						}
					}
				}
			}
			ok[me] = good
		})
		co.ScheduleCheckpoint(sim.Time(rng.Intn(600)+100) * sim.Millisecond)
		if err := k.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, g := range ok {
			if !g {
				return false
			}
		}
		reps, err := co.Reports()
		return err == nil && len(reps) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleBufferingAccountingReal(t *testing.T) {
	const n = 2
	cfg := testDefaults()
	cfg.GroupSize = 1
	cfg.Footprint = 100 * testMB
	c := newCluster(t, n, cfg)
	c.j.Launch(0, func(e *mpi.Env) {
		for i := 0; i < 3; i++ {
			e.Recv(e.World(), 1, 0)
		}
		e.Compute(4 * sim.Second)
	})
	c.j.Launch(1, func(e *mpi.Env) {
		e.Compute(500 * sim.Millisecond) // rank 0 is checkpointing by now
		for i := 0; i < 3; i++ {
			e.Send(e.World(), 0, 0, []byte("deferred payload"))
		}
		e.Compute(4 * sim.Second)
	})
	c.co.ScheduleCheckpoint(100 * sim.Millisecond)
	runSim(t, c.k)
	rep := c.reports(t)[0]
	msgs, _, bytes := rep.BufferedTotals()
	if msgs < 3 || bytes < 3*int64(len("deferred payload")) {
		t.Fatalf("buffering not attributed: msgs=%d bytes=%d", msgs, bytes)
	}
	if rep.Records[1].BufferedMsgs < 3 {
		t.Fatalf("rank 1 record: %+v", rep.Records[1])
	}
}

func TestLocalStagingPolledWithFinishedRank(t *testing.T) {
	// The kitchen-sink combination: polled discipline, staged writes, and a
	// rank that finished before the request.
	const n = 3
	cfg := testDefaults()
	cfg.GroupSize = 2
	cfg.Footprint = 20 * testMB
	c, _ := newStagingCluster(t, n, cfg)
	c.co.SetCapture(noAppState)
	sums := make([]int64, n)
	c.j.Launch(0, func(e *mpi.Env) {
		e.Compute(200 * sim.Millisecond) // finishes before the checkpoint
	})
	// Ranks 1 and 2 run a restartable-style loop with collective boundaries.
	for i := 1; i < n; i++ {
		i := i
		c.j.Launch(i, func(e *mpi.Env) {
			sub := e.NewComm([]int{1, 2})
			var sum int64
			for it := 0; it < 30; it++ {
				e.CollectiveCheckpoint(sub)
				e.Compute(50 * sim.Millisecond)
				partner := 1 - sub.Rank() // the other member of {1, 2}
				v, _ := e.SendrecvWord(sub, partner, 1, uint64(i*100+it), partner, 1)
				sum += int64(v)
			}
			sums[i] = sum
		})
	}
	c.co.ScheduleCheckpoint(600 * sim.Millisecond)
	runSim(t, c.k)
	if len(c.reports(t)) != 1 {
		t.Fatal("cycle incomplete")
	}
	rep := c.reports(t)[0]
	if rep.VulnerabilityWindow() <= 0 {
		t.Fatal("staged cycle must report a vulnerability window")
	}
	if !c.co.Snapshots().Complete(1) {
		t.Fatal("epoch never committed")
	}
	for i := 1; i < n; i++ {
		partner := 3 - i
		var want int64
		for it := 0; it < 30; it++ {
			want += int64(partner*100 + it)
		}
		if sums[i] != want {
			t.Fatalf("rank %d sum %d, want %d", i, sums[i], want)
		}
	}
}

// cycleAllocBytes runs an n-rank pure-compute job up to just before a
// Group(4) checkpoint request, then through the whole cycle, and returns the
// host bytes allocated in between.
func cycleAllocBytes(t *testing.T, n int) uint64 {
	t.Helper()
	cfg := testDefaults()
	cfg.GroupSize = 4
	cfg.Footprint = testMB
	c := newCluster(t, n, cfg)
	defer c.k.Shutdown()
	c.j.LaunchAll(computeLoop(1<<30, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	if err := c.k.RunUntil(sim.Second - 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.k.RunUntil(sim.Minute); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if c.co.Epoch() != 1 {
		t.Fatalf("%d ranks: cycle did not commit by %v", n, sim.Minute)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestCycleAllocationLinearInRanks: what one checkpoint cycle allocates on
// the host grows with the job, not with its square — no rank keeps a private
// copy of per-job state (each controller once built its own rank → group map
// every cycle).
func TestCycleAllocationLinearInRanks(t *testing.T) {
	at32, at64 := cycleAllocBytes(t, 32), cycleAllocBytes(t, 64)
	if float64(at64) > 2.2*float64(at32) {
		t.Fatalf("a cycle allocates %d B at 64 ranks, %d B at 32: %.2fx, want <= 2.2x",
			at64, at32, float64(at64)/float64(at32))
	}
	t.Logf("cycle allocation: %d B at 32 ranks, %d B at 64 (%.2fx)", at32, at64, float64(at64)/float64(at32))
}
