package workload_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
	"gbcr/internal/workload/motif"
)

// newJob builds a kernel and n-rank job, failing the test on wiring errors.
func newJob(t testing.TB, n int) (*sim.Kernel, *mpi.Job) {
	t.Helper()
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := mpi.NewJob(k, f, mpi.DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	return k, j
}

// restartRow is one workload the restart driver runs: a small n-rank run of
// it, how many iterations that run takes, and its per-rank results.
type restartRow struct {
	name   string // as the workload's errors name it
	w      workload.Restartable
	iters  int
	result func(workload.Instance) string
}

func restartRows(n int) []restartRow {
	const chunk = 10 * sim.Millisecond
	return []restartRow{
		{"ring", workload.Ring{N: n, Iters: 6, Chunk: chunk, FootprintMB: 1}, 6,
			func(i workload.Instance) string { return fmt.Sprint(i.(*workload.RingInstance).Sums) }},
		{"allgather", workload.AllgatherLoop{N: n, Iters: 6, Chunk: chunk, FootprintMB: 1}, 6,
			func(i workload.Instance) string { return fmt.Sprint(i.(*workload.AllgatherInstance).Hashes) }},
		{"stencil", workload.Stencil{N: n, Cells: 4, Iters: 6, Chunk: chunk, FootprintMB: 1}, 6,
			func(i workload.Instance) string { return fmt.Sprint(i.(*workload.StencilInstance).Checksums) }},
		{"motif", motif.Mine{Graphs: 24, Vertices: 12, Degree: 3, Labels: 4, MinSup: 8, MaxLen: 3, Seed: 11, LevelCompute: chunk}, 3,
			func(i workload.Instance) string { return fmt.Sprint(i.(*motif.MineInstance).Frequent) }},
	}
}

// pollCapture is an mpi.CRHooks that has its rank serve a polled safe point
// in every CollectiveCheckpoint, and captures the rank's state in poll k.
type pollCapture struct {
	r     *mpi.Rank
	inst  workload.RestartableInstance
	k     int
	polls int
	state []byte
	err   error
}

func (h *pollCapture) AtSafePoint(e *mpi.Env) {
	if h.polls == h.k {
		h.state, h.err = h.inst.Capture(e.Rank())
	}
	h.polls++
	h.r.RequestSafePointPolled()
}

func (*pollCapture) SendAllowed(int) bool       { return true }
func (*pollCapture) ConnMeta() int64            { return 0 }
func (*pollCapture) ConnChanged(int)            {}
func (*pollCapture) AcceptConn(int, int64) bool { return true }
func (*pollCapture) OOB(int, any)               {}

// run launches w on a fresh n-rank job from states and runs it to the end,
// serving a safe point in every poll. It returns the instance, every rank's
// state — captured in poll k, or at the end with k >= iters — and how many
// polls each rank served.
func run(t *testing.T, row restartRow, n int, states [][]byte, k int) (workload.RestartableInstance, [][]byte, []int) {
	t.Helper()
	kern, j := newJob(t, n)
	inst, err := row.w.LaunchFrom(j, states)
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*pollCapture, n)
	for i := range hooks {
		hooks[i] = &pollCapture{r: j.Rank(i), inst: inst, k: k}
		j.Rank(i).SetHooks(hooks[i])
		j.Rank(i).RequestSafePointPolled()
	}
	if err := kern.Run(); err != nil {
		t.Fatal(err)
	}
	captured, polls := make([][]byte, n), make([]int, n)
	for i, h := range hooks {
		polls[i] = h.polls
		switch {
		case k >= row.iters:
			if captured[i], err = inst.Capture(i); err != nil {
				t.Fatal(err)
			}
		case h.state == nil || h.err != nil:
			t.Fatalf("rank %d: no state captured in poll %d (%d polls): %v", i, k, h.polls, h.err)
		default:
			captured[i] = h.state
		}
	}
	return inst, captured, polls
}

// TestRestoreMidRun: every rank captured inside iteration k's poll and
// relaunched from there on a fresh job skips that poll, runs the remaining
// iterations, and ends with the failure-free run's results — at the first
// poll, a middle one, and at the end of the run. A state that does not
// decode fails the relaunch, naming workload and rank.
func TestRestoreMidRun(t *testing.T) {
	const n = 4
	for _, row := range restartRows(n) {
		t.Run(row.name, func(t *testing.T) {
			ref, end, polls := run(t, row, n, nil, row.iters)
			if slices.ContainsFunc(polls, func(p int) bool { return p != row.iters }) {
				t.Fatalf("failure-free run served %v polls, want %d a rank", polls, row.iters)
			}
			want := row.result(ref)
			for _, k := range []int{0, row.iters / 2, row.iters} {
				name := fmt.Sprintf("k=%d", k)
				if k == row.iters {
					name = "end"
				}
				t.Run(name, func(t *testing.T) {
					_, states, _ := run(t, row, n, nil, k)
					got, _, polls := run(t, row, n, states, row.iters)
					if r := row.result(got); r != want {
						t.Fatalf("restored from poll %d: %s, failure-free run: %s", k, r, want)
					}
					left := max(row.iters-k-1, 0)
					if slices.ContainsFunc(polls, func(p int) bool { return p != left }) {
						t.Fatalf("restored from poll %d, the ranks served %v polls, want %d each", k, polls, left)
					}
				})
			}
			t.Run("corrupt", func(t *testing.T) {
				states := slices.Clone(end)
				states[1] = []byte("not a snapshot")
				_, j := newJob(t, n)
				_, err := row.w.LaunchFrom(j, states)
				if err == nil || !strings.Contains(err.Error(), row.name) || !strings.Contains(err.Error(), "rank 1") {
					t.Fatalf("LaunchFrom(corrupt rank 1) error = %v, want one naming %s and rank 1", err, row.name)
				}
			})
		})
	}
}

// TestLaunchRejectsSizeMismatch: a workload whose rank count is not the
// job's, a communication group outside the job, or a relaunch with one state
// too few, is an error, not a panic or a deadlock.
func TestLaunchRejectsSizeMismatch(t *testing.T) {
	mine := restartRows(4)[3].w
	cases := []struct {
		name string
		w    workload.Workload
		want string
	}{
		{"ring more ranks", workload.Ring{N: 5, Iters: 2}, "does not match N=5"},
		{"ring fewer ranks", workload.Ring{N: 3, Iters: 2}, "does not match N=3"},
		{"allgather", workload.AllgatherLoop{N: 5, Iters: 2}, "does not match N=5"},
		{"stencil", workload.Stencil{N: 5, Cells: 2, Iters: 2}, "does not match N=5"},
		{"commgroups", workload.CommGroups{N: 5, CommGroupSize: 2, Iters: 2}, "does not match N=5"},
		{"barrier", workload.CommGroups{N: 5, CommGroupSize: 2, Iters: 2, BarrierEvery: 1}, "barrier: job size 4 does not match N=5"},
		{"commgroups group zero", workload.CommGroups{N: 4, CommGroupSize: 0, Iters: 2}, "size 0 is outside 1..N=4"},
		{"commgroups group past the job", workload.CommGroups{N: 4, CommGroupSize: 5, Iters: 2}, "size 5 is outside 1..N=4"},
		{"barrier group zero", workload.CommGroups{N: 4, CommGroupSize: 0, Iters: 2, BarrierEvery: 1}, "barrier: communication group size 0 is outside 1..N=4"},
		{"barrier group past the job", workload.CommGroups{N: 4, CommGroupSize: 5, Iters: 2, BarrierEvery: 1}, "barrier: communication group size 5 is outside 1..N=4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, j := newJob(t, 4)
			if _, err := tc.w.Launch(j); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Launch() error = %v, want one containing %q", err, tc.want)
			}
		})
	}
	t.Run("motif states", func(t *testing.T) {
		_, j := newJob(t, 4)
		if _, err := mine.LaunchFrom(j, make([][]byte, 3)); err == nil || !strings.Contains(err.Error(), "3 rank states for N=4") {
			t.Fatalf("LaunchFrom(3 states) error = %v", err)
		}
	})
}

// raceEnabled is set in race-detector builds.
var raceEnabled bool

// TestRelaunchAllocs pins what relaunching each workload at 32 ranks from
// end-of-run states may allocate: decoding the states and spawning the
// ranks, and no closure a rank beyond the one each rank's body is. The
// ceilings are the counts before the restart driver; motif reads 2,924 now,
// as gob sizes a restored map once instead of growing an empty one.
func TestRelaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for every goroutine it tracks")
	}
	const n = 32
	ceiling := map[string]uint64{"ring": 588, "allgather": 588, "stencil": 684, "motif": 3436}
	for _, row := range restartRows(n) {
		_, states, _ := run(t, row, n, nil, row.iters)
		const runs = 20
		var total uint64
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for r := 0; r < runs; r++ {
				kern, j := newJob(t, n)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := row.w.LaunchFrom(j, states)
				runtime.ReadMemStats(&after)
				kern.Shutdown()
				if err != nil {
					t.Fatal(err)
				}
				total += after.Mallocs - before.Mallocs
			}
		}()
		if got := total / runs; got > ceiling[row.name] {
			t.Errorf("%s: relaunching %d ranks makes %d allocations, want at most %d", row.name, n, got, ceiling[row.name])
		}
	}
}
