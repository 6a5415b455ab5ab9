package workload

import (
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
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

// launch starts w on j, failing the test on a launch error.
func launch(t testing.TB, w Workload, j *mpi.Job) Instance {
	t.Helper()
	inst, err := w.Launch(j)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestGroupRanks(t *testing.T) {
	cases := []struct {
		n, size, me int
		want        string
	}{
		{8, 4, 0, "[0 1 2 3]"},
		{8, 4, 5, "[4 5 6 7]"},
		{8, 0, 3, "[0 1 2 3 4 5 6 7]"},
		{7, 3, 6, "[6]"},
		{8, 1, 2, "[2]"},
	}
	for _, c := range cases {
		if got := sprint(GroupRanks(c.n, c.size, c.me)); got != c.want {
			t.Errorf("GroupRanks(%d,%d,%d) = %v, want %v", c.n, c.size, c.me, got, c.want)
		}
	}
}

func sprint(v []int) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += itoa(x)
	}
	return s + "]"
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var b []byte
	for x > 0 {
		b = append([]byte{byte('0' + x%10)}, b...)
		x /= 10
	}
	return string(b)
}

// finishTimes is a kernel observer that records when each process body
// returns, by process name.
type finishTimes map[string]sim.Time

func (finishTimes) ProcSpawned(sim.Time, string)         {}
func (finishTimes) ProcParked(sim.Time, string, string)  {}
func (finishTimes) ProcUnparked(sim.Time, string)        {}
func (f finishTimes) ProcDone(now sim.Time, name string) { f[name] = now }

func TestCommGroupsCompletes(t *testing.T) {
	k, j := newJob(t, 8)
	w := CommGroups{N: 8, CommGroupSize: 4, Iters: 20, Chunk: 50 * sim.Millisecond, FootprintMB: 16}
	inst := launch(t, w, j)
	finished := finishTimes{}
	k.SetObserver(finished)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Completion is dominated by compute: 20 * 50ms = 1s plus exchanges.
	ft := j.FinishTime()
	if ft < sim.Second || ft > 1200*sim.Millisecond {
		t.Fatalf("finish time %v, want ~1s", ft)
	}
	if inst.Footprint(3) != 16<<20 {
		t.Fatalf("footprint %d", inst.Footprint(3))
	}
	// Members of a communication group finish within a whisker of each
	// other (continuous blocking exchange synchronizes them).
	for g := 0; g < 2; g++ {
		var lo, hi sim.Time = 1 << 62, 0
		for r := g * 4; r < g*4+4; r++ {
			at := finished["rank"+itoa(r)]
			if at < lo {
				lo = at
			}
			if at > hi {
				hi = at
			}
		}
		if hi-lo > 10*sim.Millisecond {
			t.Fatalf("group %d finish skew %v", g, hi-lo)
		}
	}
}

func TestCommGroupsEmbarrassinglyParallel(t *testing.T) {
	k, j := newJob(t, 4)
	bus := obs.NewBus()
	j.SetObs(bus)
	w := CommGroups{N: 4, CommGroupSize: 1, Iters: 10, Chunk: 100 * sim.Millisecond, FootprintMB: 16}
	launch(t, w, j)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ft := j.FinishTime(); ft != sim.Second {
		t.Fatalf("pure compute should finish at exactly 1s, got %v", ft)
	}
	// No messages at all.
	for _, name := range []string{"eager_sent", "rendezvous_sent"} {
		if n := bus.Metrics().Counter(obs.LayerMPI, name).Value(); n != 0 {
			t.Fatalf("EP mode counted %d %s", n, name)
		}
	}
}

// TestBarrierPhasesStructure: CommGroups with BarrierEvery set runs
// barrier-terminated phases (Figure 4).
func TestBarrierPhasesStructure(t *testing.T) {
	k, j := newJob(t, 4)
	w := CommGroups{N: 4, CommGroupSize: 2, Iters: 3 * 5, Chunk: 100 * sim.Millisecond,
		BarrierEvery: 500 * sim.Millisecond, FootprintMB: 16}
	launch(t, w, j)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ft := j.FinishTime()
	if ft < 1500*sim.Millisecond || ft > 1700*sim.Millisecond {
		t.Fatalf("3 phases of 500ms: finish %v", ft)
	}
	// Barriers ran: collectives counter is nonzero.
	if j.Rank(0).Stats().CollectivesRun != 3 {
		t.Fatalf("barriers missing: %+v", j.Rank(0).Stats())
	}
}

func TestRingSums(t *testing.T) {
	const n, iters = 5, 30
	k, j := newJob(t, n)
	w := Ring{N: n, Iters: iters, Chunk: 20 * sim.Millisecond, FootprintMB: 8}
	inst := launch(t, w, j).(*RingInstance)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for me := 0; me < n; me++ {
		if inst.Sums[me] != ExpectedRingSum(n, iters, me) {
			t.Fatalf("rank %d sum %d, want %d", me, inst.Sums[me], ExpectedRingSum(n, iters, me))
		}
	}
}

// A Ring image is one allocation to write and at most one to read: the
// codec sends ringState's gob types once per process, not once per image.
func TestRingCodecAllocs(t *testing.T) {
	inst := &RingInstance{Resumable: Resumable[ringState]{codec: &ringCodec, states: []*ringState{{Iter: 41, Sum: 1 << 40}}}}
	img, err := inst.Capture(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := inst.Capture(0); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Ring Capture makes %v allocations, want 1", n)
	}
	var st ringState
	if n := testing.AllocsPerRun(100, func() {
		if err := ringCodec.Decode(img, &st); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("decoding a Ring image makes %v allocations, want at most 1", n)
	}
	if st != *inst.states[0] {
		t.Errorf("decoded %+v, captured %+v", st, *inst.states[0])
	}
}

func TestAllgatherLoopHashes(t *testing.T) {
	const n, iters = 4, 15
	k, j := newJob(t, n)
	w := AllgatherLoop{N: n, Iters: iters, Chunk: 20 * sim.Millisecond, FootprintMB: 8}
	inst := launch(t, w, j).(*AllgatherInstance)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Every rank folds the same blocks in the same (comm-rank) order, so
	// all hashes agree — and match a serial recomputation.
	var want uint64
	for it := 0; it < iters; it++ {
		for me := 0; me < n; me++ {
			want = want*1099511628211 + uint64(me*1_000_000+it)
		}
	}
	for me := 0; me < n; me++ {
		if inst.Hashes[me] != want {
			t.Fatalf("rank %d hash %x, want %x", me, inst.Hashes[me], want)
		}
	}
}

// serialStencil computes the expected per-rank checksums with a plain
// serial implementation of the same relaxation.
func serialStencil(w Stencil) []float64 {
	// Global field with per-rank strips (halos are just neighbours' cells).
	strips := make([][]float64, w.N)
	for me := 0; me < w.N; me++ {
		strips[me] = w.initField(me)
	}
	for it := 0; it < w.Iters; it++ {
		// Halo exchange.
		for me := 0; me < w.N; me++ {
			if me > 0 {
				strips[me][0] = strips[me-1][w.Cells]
			}
			if me < w.N-1 {
				strips[me][w.Cells+1] = strips[me+1][1]
			}
		}
		// Sweep.
		next := make([][]float64, w.N)
		for me := 0; me < w.N; me++ {
			next[me] = append([]float64{}, strips[me]...)
			for c := 1; c <= w.Cells; c++ {
				if (me == 0 && c == 1) || (me == w.N-1 && c == w.Cells) {
					continue
				}
				next[me][c] = 0.5*strips[me][c] + 0.25*(strips[me][c-1]+strips[me][c+1])
			}
		}
		strips = next
	}
	sums := make([]float64, w.N)
	for me := 0; me < w.N; me++ {
		for _, v := range strips[me][1 : w.Cells+1] {
			sums[me] += v
		}
	}
	return sums
}

func TestStencilMatchesSerial(t *testing.T) {
	w := Stencil{N: 5, Cells: 8, Iters: 20, Chunk: 10 * sim.Millisecond, FootprintMB: 8}
	k, j := newJob(t, w.N)
	inst := launch(t, w, j).(*StencilInstance)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := serialStencil(w)
	for me := 0; me < w.N; me++ {
		if inst.Checksums[me] != want[me] {
			t.Fatalf("rank %d checksum %v, serial %v", me, inst.Checksums[me], want[me])
		}
	}
}

func TestWorkloadNamesAndFootprints(t *testing.T) {
	names := []struct {
		got, want string
	}{
		{CommGroups{N: 32, CommGroupSize: 8}.Name(), "commgroups(n=32,comm=8)"},
		{CommGroups{N: 32, CommGroupSize: 8, BarrierEvery: sim.Minute}.Name(), "barrier(n=32,comm=8,every=60s)"},
		{Ring{N: 6}.Name(), "ring(n=6)"},
		{AllgatherLoop{N: 6}.Name(), "allgatherloop(n=6)"},
		{Stencil{N: 6, Cells: 4}.Name(), "stencil(n=6,cells=4)"},
	}
	for _, c := range names {
		if c.got != c.want {
			t.Errorf("Name() = %q, want %q", c.got, c.want)
		}
	}
	for _, c := range []struct {
		w  Workload
		mb int64
	}{{Ring{N: 2, FootprintMB: 7}, 7}, {Stencil{N: 2, Cells: 1, FootprintMB: 3}, 3}, {AllgatherLoop{N: 2, FootprintMB: 5}, 5}} {
		k, j := newJob(t, 2)
		if got := launch(t, c.w, j).Footprint(1); got != c.mb<<20 {
			t.Errorf("%s footprint %d, want %d", c.w.Name(), got, c.mb<<20)
		}
		k.Shutdown()
	}
}
