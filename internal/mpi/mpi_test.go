package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gbcr/internal/ib"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// newTestJob builds a kernel, fabric, and n-rank job with default config.
func newTestJob(t testing.TB, n int) (*sim.Kernel, *Job) {
	t.Helper()
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(k, f, DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	return k, j
}

// counted attaches a bus to j and returns a reader of its mpi counters.
func counted(j *Job) func(name string) int64 {
	bus := obs.NewBus()
	j.SetObs(bus)
	return func(name string) int64 { return bus.Metrics().Counter(obs.LayerMPI, name).Value() }
}

func run(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// isend, irecv and wait post and complete requests through the library's
// internal calls, each bracketed like an API entry, for the tests that hold
// several operations in flight at once.
func isend(e *Env, c *Comm, dst, tag int, data []byte) *Request {
	e.enter()
	defer e.exit()
	return e.isendInternal(c, dst, tag, content(data))
}

func irecv(e *Env, c *Comm, src, tag int) *Request {
	e.enter()
	defer e.exit()
	return e.irecvInternal(c, src, tag)
}

func wait(e *Env, reqs ...*Request) {
	e.enter()
	defer e.exit()
	for _, req := range reqs {
		e.waitInternal(req)
	}
}

// outboxLen reports how many packets r holds deferred toward dst.
func outboxLen(r *Rank, dst int) int {
	if pr := r.peerIfAny(dst); pr != nil {
		return len(pr.outbox)
	}
	return 0
}

// TestLaunchTwiceFails: launching a rank that is already launched keeps its
// first process, spawns nothing, and fails the run with an error naming it.
func TestLaunchTwiceFails(t *testing.T) {
	k, j := newTestJob(t, 2)
	j.LaunchAll(func(e *Env) {})
	first := j.Rank(1).proc
	if r := j.Launch(1, func(e *Env) { t.Error("second body ran") }); r != j.Rank(1) || r.proc != first {
		t.Fatal("second Launch replaced rank 1's process")
	}
	defer k.Shutdown()
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "rank 1 launched twice") {
		t.Fatalf("Run returned %v, want the rank 1 double-launch error", err)
	}
}

// TestForeignPayloadFailsRun: a packet that is not the library's own, sent
// by an endpoint outside the job, is dropped and fails the run with an error
// naming the rank and the payload's type.
func TestForeignPayloadFailsRun(t *testing.T) {
	k, j := newTestJob(t, 2)
	foreign, err := j.Fabric().AddEndpoint(99)
	if err != nil {
		t.Fatal(err)
	}
	foreign.OnConnUp = func(peer int) {
		if err := foreign.Send(peer, 8, new(int)); err != nil {
			t.Error(err)
		}
	}
	if err := foreign.Connect(0, 0); err != nil {
		t.Fatal(err)
	}
	j.Launch(0, func(e *Env) { e.Recv(e.World(), 1, 0) })
	j.Launch(1, func(e *Env) {
		e.Compute(sim.Second)
		e.Send(e.World(), 0, 0, []byte("late"))
	})
	defer k.Shutdown()
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "rank 0 received unknown payload *int from endpoint 99") {
		t.Fatalf("Run returned %v, want rank 0's unknown-payload error", err)
	}
}

func TestEagerSendRecv(t *testing.T) {
	k, j := newTestJob(t, 2)
	counter := counted(j)
	payload := []byte("hello infiniband")
	var got []byte
	var st Status
	j.Launch(0, func(e *Env) {
		e.Send(e.World(), 1, 7, payload)
	})
	j.Launch(1, func(e *Env) {
		got, st = e.Recv(e.World(), 0, 7)
	})
	run(t, k)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %q", got)
	}
	if st.Source != 0 || st.Tag != 7 || st.Size != int64(len(payload)) {
		t.Fatalf("status = %+v", st)
	}
	if eager, rdv := counter("eager_sent"), counter("rendezvous_sent"); eager != 1 || rdv != 0 {
		t.Fatalf("protocol selection wrong: %d eager, %d rendezvous sends", eager, rdv)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	k, j := newTestJob(t, 2)
	counter := counted(j)
	payload := make([]byte, 1<<20) // 1 MiB, far over the eager threshold
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got []byte
	j.Launch(0, func(e *Env) {
		e.Send(e.World(), 1, 0, payload)
	})
	j.Launch(1, func(e *Env) {
		got, _ = e.Recv(e.World(), 0, 0)
	})
	run(t, k)
	if !bytes.Equal(got, payload) {
		t.Fatal("rendezvous payload corrupted")
	}
	if n := counter("rendezvous_sent"); n != 1 {
		t.Fatalf("expected one rendezvous send, got %d", n)
	}
}

func TestSendBeforeRecvPosted(t *testing.T) {
	k, j := newTestJob(t, 2)
	var got []byte
	j.Launch(0, func(e *Env) {
		e.Send(e.World(), 1, 3, []byte("early"))
	})
	j.Launch(1, func(e *Env) {
		e.Compute(50 * sim.Millisecond) // the message arrives unexpected
		got, _ = e.Recv(e.World(), 0, 3)
	})
	run(t, k)
	if string(got) != "early" {
		t.Fatalf("unexpected-queue path broken: %q", got)
	}
}

func TestNonOvertakingMixedProtocols(t *testing.T) {
	// A small eager message sent after a large rendezvous message on the
	// same (source, tag) must match second, even though its data arrives
	// first.
	k, j := newTestJob(t, 2)
	big := make([]byte, 256<<10)
	big[0] = 'B'
	var first, second []byte
	j.Launch(0, func(e *Env) {
		w := e.World()
		r1 := isend(e, w, 1, 5, big)
		r2 := isend(e, w, 1, 5, []byte("small"))
		wait(e, r1, r2)
	})
	j.Launch(1, func(e *Env) {
		e.Compute(10 * sim.Millisecond)
		w := e.World()
		first, _ = e.Recv(w, 0, 5)
		second, _ = e.Recv(w, 0, 5)
	})
	run(t, k)
	if len(first) != len(big) || first[0] != 'B' {
		t.Fatalf("first recv got %d bytes, want the big message", len(first))
	}
	if string(second) != "small" {
		t.Fatalf("second recv got %q", second)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	k, j := newTestJob(t, 3)
	var got [2]Status
	for i := 1; i <= 2; i++ {
		i := i
		j.Launch(i, func(e *Env) {
			e.Compute(sim.Time(i) * sim.Millisecond)
			e.Send(e.World(), 0, 10+i, []byte{byte(i)})
		})
	}
	j.Launch(0, func(e *Env) {
		w := e.World()
		_, got[0] = e.Recv(w, ANY, ANY)
		_, got[1] = e.Recv(w, ANY, ANY)
	})
	run(t, k)
	if got[0].Source != 1 || got[0].Tag != 11 {
		t.Fatalf("first wildcard recv: %+v", got[0])
	}
	if got[1].Source != 2 || got[1].Tag != 12 {
		t.Fatalf("second wildcard recv: %+v", got[1])
	}
}

func TestTagSelectivity(t *testing.T) {
	k, j := newTestJob(t, 2)
	var tagged, other []byte
	j.Launch(0, func(e *Env) {
		w := e.World()
		e.Send(w, 1, 1, []byte("one"))
		e.Send(w, 1, 2, []byte("two"))
	})
	j.Launch(1, func(e *Env) {
		w := e.World()
		e.Compute(10 * sim.Millisecond)
		tagged, _ = e.Recv(w, 0, 2) // match the second message first
		other, _ = e.Recv(w, 0, 1)
	})
	run(t, k)
	if string(tagged) != "two" || string(other) != "one" {
		t.Fatalf("tag matching broken: %q %q", tagged, other)
	}
}

func TestSendrecvRing(t *testing.T) {
	const n = 5
	k, j := newTestJob(t, n)
	got := make([]int, n)
	j.LaunchAll(func(e *Env) {
		w := e.World()
		me := e.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		v, _ := e.SendrecvWord(w, right, 0, uint64(me), left, 0)
		got[me] = int(v)
	})
	run(t, k)
	for me := 0; me < n; me++ {
		if got[me] != (me-1+n)%n {
			t.Fatalf("rank %d received %d", me, got[me])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 4
	k, j := newTestJob(t, n)
	exit := make([]sim.Time, n)
	j.LaunchAll(func(e *Env) {
		me := e.Rank()
		e.Compute(sim.Time(me+1) * 100 * sim.Millisecond)
		e.Barrier(e.World())
		exit[me] = e.p.Now()
	})
	run(t, k)
	latest := sim.Time(n) * 100 * sim.Millisecond // slowest rank enters here
	for me, x := range exit {
		if x < latest {
			t.Fatalf("rank %d left the barrier at %v before the last entry %v", me, x, latest)
		}
		if x > latest+10*sim.Millisecond {
			t.Fatalf("rank %d barrier exit %v too long after last entry %v", me, x, latest)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	const n = 6 // non-power-of-two
	for _, size := range []int{10, 100 << 10} {
		for root := 0; root < n; root++ {
			k, j := newTestJob(t, n)
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(i ^ root)
			}
			got := make([][]byte, n)
			j.LaunchAll(func(e *Env) {
				var in []byte
				if e.Rank() == root {
					in = want
				}
				got[e.Rank()] = e.Bcast(e.World(), root, in)
			})
			run(t, k)
			for me := 0; me < n; me++ {
				if !bytes.Equal(got[me], want) {
					t.Fatalf("size=%d root=%d rank=%d: bcast corrupted", size, root, me)
				}
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		k, j := newTestJob(t, n)
		var got []float64
		j.LaunchAll(func(e *Env) {
			in := []float64{float64(e.Rank() + 1), 2}
			acc, ok := e.reduce(e.World(), 0, content(F64ToBytes(in)), OpSum)
			if e.Rank() == 0 {
				got = e.decodeF64(acc.data)
			} else if !ok {
				t.Errorf("rank %d: reduce failed", e.Rank())
			}
		})
		run(t, k)
		wantSum := float64(n*(n+1)) / 2
		if got[0] != wantSum || got[1] != float64(2*n) {
			t.Fatalf("n=%d: reduce = %v, want [%v %v]", n, got, wantSum, 2*n)
		}
	}
}

func TestAllreduceMaxEveryRank(t *testing.T) {
	const n = 7
	k, j := newTestJob(t, n)
	got := make([][]float64, n)
	j.LaunchAll(func(e *Env) {
		got[e.Rank()] = e.AllreduceF64(e.World(), []float64{float64(e.Rank())}, OpMax)
	})
	run(t, k)
	for me := 0; me < n; me++ {
		if got[me][0] != float64(n-1) {
			t.Fatalf("rank %d allreduce max = %v", me, got[me])
		}
	}
}

func TestAllgather(t *testing.T) {
	const n = 5
	k, j := newTestJob(t, n)
	got := make([][][]byte, n)
	j.LaunchAll(func(e *Env) {
		mine := []byte(fmt.Sprintf("block-from-%d", e.Rank()))
		got[e.Rank()] = e.Allgather(e.World(), mine)
	})
	run(t, k)
	for me := 0; me < n; me++ {
		for src := 0; src < n; src++ {
			want := fmt.Sprintf("block-from-%d", src)
			if string(got[me][src]) != want {
				t.Fatalf("rank %d block %d = %q, want %q", me, src, got[me][src], want)
			}
		}
	}
}

func TestComputeDuration(t *testing.T) {
	k, j := newTestJob(t, 1)
	var end sim.Time
	j.Launch(0, func(e *Env) {
		e.Compute(3 * sim.Second)
		end = e.p.Now()
	})
	run(t, k)
	if end != 3*sim.Second {
		t.Fatalf("compute ended at %v", end)
	}
}

// spHooks is a test CRHooks recording safe-point invocations.
type spHooks struct {
	calls []sim.Time
	gate  map[int]bool // dst -> blocked
}

func (h *spHooks) AtSafePoint(e *Env) { h.calls = append(h.calls, e.p.Now()) }
func (h *spHooks) SendAllowed(dst int) bool {
	if h.gate == nil {
		return true
	}
	return !h.gate[dst]
}
func (*spHooks) ConnMeta() int64            { return 0 }
func (*spHooks) ConnChanged(int)            {}
func (*spHooks) AcceptConn(int, int64) bool { return true }
func (*spHooks) OOB(int, any)               {}

func TestSafePointInterruptsCompute(t *testing.T) {
	k, j := newTestJob(t, 1)
	h := &spHooks{}
	j.Rank(0).SetHooks(h)
	var end sim.Time
	j.Launch(0, func(e *Env) {
		e.Compute(2 * sim.Second)
		end = e.p.Now()
	})
	k.At(500*sim.Millisecond, func() { j.Rank(0).RequestSafePoint() })
	run(t, k)
	if len(h.calls) != 1 || h.calls[0] != 500*sim.Millisecond {
		t.Fatalf("safe point calls: %v", h.calls)
	}
	if end != 2*sim.Second {
		t.Fatalf("compute lost time across safe point: ended %v", end)
	}
}

func TestSafePointInterruptsBlockingWait(t *testing.T) {
	k, j := newTestJob(t, 2)
	h := &spHooks{}
	j.Rank(0).SetHooks(h)
	var got []byte
	j.Launch(0, func(e *Env) {
		got, _ = e.Recv(e.World(), 1, 0)
	})
	j.Launch(1, func(e *Env) {
		e.Compute(sim.Second)
		e.Send(e.World(), 0, 0, []byte("late"))
	})
	k.At(300*sim.Millisecond, func() { j.Rank(0).RequestSafePoint() })
	run(t, k)
	if len(h.calls) != 1 || h.calls[0] != 300*sim.Millisecond {
		t.Fatalf("safe point inside wait: %v", h.calls)
	}
	if string(got) != "late" {
		t.Fatalf("recv corrupted by safe point: %q", got)
	}
}

func TestMaybeCheckpointExplicitSafePoint(t *testing.T) {
	k, j := newTestJob(t, 1)
	h := &spHooks{}
	j.Rank(0).SetHooks(h)
	j.Launch(0, func(e *Env) {
		for i := 0; i < 4; i++ {
			// Non-interruptible work: the request is only served at the
			// explicit boundary.
			e.Proc().Sleep(100 * sim.Millisecond)
			e.MaybeCheckpoint()
		}
	})
	k.At(250*sim.Millisecond, func() { j.Rank(0).RequestSafePoint() })
	run(t, k)
	if len(h.calls) != 1 || h.calls[0] != 300*sim.Millisecond {
		t.Fatalf("explicit safe point at %v, want 300ms boundary", h.calls)
	}
}

func TestProgressRuleWithoutHelper(t *testing.T) {
	// Receiver posts a recv, then computes for 10s with no helper thread:
	// the rendezvous cannot complete until it re-enters the library.
	k, j := newTestJob(t, 2)
	var sendDone sim.Time
	j.Launch(0, func(e *Env) {
		e.Compute(100 * sim.Millisecond)
		e.Send(e.World(), 1, 0, make([]byte, 1<<20))
		sendDone = e.p.Now()
	})
	j.Launch(1, func(e *Env) {
		req := irecv(e, e.World(), 0, 0)
		e.Compute(10 * sim.Second)
		wait(e, req)
	})
	run(t, k)
	if sendDone < 10*sim.Second {
		t.Fatalf("rendezvous completed at %v while receiver was computing (no progress source)", sendDone)
	}
}

func TestHelperThreadBoundsProgress(t *testing.T) {
	// Same scenario with the helper thread on: the RTS is served within the
	// helper interval and the transfer completes while the receiver computes.
	k, j := newTestJob(t, 2)
	counter := counted(j)
	j.Rank(1).SetHelper(true)
	var sendDone sim.Time
	j.Launch(0, func(e *Env) {
		e.Compute(100 * sim.Millisecond)
		e.Send(e.World(), 1, 0, make([]byte, 1<<20))
		sendDone = e.p.Now()
	})
	j.Launch(1, func(e *Env) {
		req := irecv(e, e.World(), 0, 0)
		e.Compute(10 * sim.Second)
		wait(e, req)
	})
	run(t, k)
	limit := 100*sim.Millisecond + 3*helperInterval
	if sendDone > limit {
		t.Fatalf("helper thread did not bound progress: send done at %v, want < %v", sendDone, limit)
	}
	if counter("helper_ticks") == 0 {
		t.Fatal("helper never ticked")
	}
}

func TestGatedEagerIsMessageBuffered(t *testing.T) {
	k, j := newTestJob(t, 2)
	h := &spHooks{gate: map[int]bool{1: true}}
	j.Rank(0).SetHooks(h)
	var recvAt sim.Time
	j.Launch(0, func(e *Env) {
		e.Send(e.World(), 1, 0, []byte("deferred")) // completes despite the gate
	})
	j.Launch(1, func(e *Env) {
		e.Recv(e.World(), 0, 0)
		recvAt = e.p.Now()
	})
	k.At(sim.Second, func() {
		h.gate[1] = false
		j.Rank(0).ReleaseDst(1)
	})
	run(t, k)
	if recvAt < sim.Second {
		t.Fatalf("gated message leaked at %v", recvAt)
	}
	s := j.Rank(0).Stats()
	if s.MsgsBuffered != 1 || s.BytesBuffered != int64(len("deferred")) {
		t.Fatalf("message buffering stats: %+v", s)
	}
}

func TestGatedRendezvousIsRequestBuffered(t *testing.T) {
	k, j := newTestJob(t, 2)
	h := &spHooks{gate: map[int]bool{1: true}}
	j.Rank(0).SetHooks(h)
	var sendDone sim.Time
	j.Launch(0, func(e *Env) {
		e.Send(e.World(), 1, 0, make([]byte, 1<<20)) // blocks on the gate
		sendDone = e.p.Now()
	})
	j.Launch(1, func(e *Env) {
		e.Recv(e.World(), 0, 0)
	})
	k.At(sim.Second, func() {
		h.gate[1] = false
		j.Rank(0).ReleaseDst(1)
	})
	run(t, k)
	if sendDone < sim.Second {
		t.Fatalf("gated rendezvous send completed at %v", sendDone)
	}
	if s := j.Rank(0).Stats(); s.ReqsBuffered == 0 {
		t.Fatalf("request buffering stats: %+v", s)
	}
}

func TestSubCommunicatorsIsolate(t *testing.T) {
	// Two disjoint comms using identical tags must not cross-match.
	const n = 4
	k, j := newTestJob(t, n)
	got := make([][]byte, n)
	j.LaunchAll(func(e *Env) {
		me := e.Rank()
		var c *Comm
		if me < 2 {
			c = e.NewComm([]int{0, 1})
		} else {
			c = e.NewComm([]int{2, 3})
		}
		if c.Rank() == 0 {
			e.Send(c, 1, 9, []byte{byte(me)})
		} else {
			got[me], _ = e.Recv(c, 0, 9)
		}
	})
	run(t, k)
	if got[1][0] != 0 || got[3][0] != 2 {
		t.Fatalf("sub-communicator crosstalk: %v %v", got[1], got[3])
	}
}

func TestCommTranslation(t *testing.T) {
	k, j := newTestJob(t, 4)
	j.Launch(0, func(e *Env) {
		c := e.NewComm([]int{3, 0, 2})
		if c.Size() != 3 || c.Rank() != 1 {
			t.Errorf("size=%d rank=%d", c.Size(), c.Rank())
		}
		if c.World(0) != 3 || c.World(2) != 2 {
			t.Error("World translation")
		}
	})
	run(t, k)
}

func TestRowColumnGrid(t *testing.T) {
	// The HPL pattern: a 2x2 grid with row and column communicators.
	const p, q = 2, 2
	k, j := newTestJob(t, p*q)
	rowSums := make([][]float64, p*q)
	colSums := make([][]float64, p*q)
	j.LaunchAll(func(e *Env) {
		me := e.Rank()
		row, col := me/q, me%q
		rowRanks := make([]int, q)
		for c := 0; c < q; c++ {
			rowRanks[c] = row*q + c
		}
		colRanks := make([]int, p)
		for r := 0; r < p; r++ {
			colRanks[r] = r*q + col
		}
		rowComm := e.NewComm(rowRanks)
		colComm := e.NewComm(colRanks)
		rowSums[me] = e.AllreduceF64(rowComm, []float64{float64(me)}, OpSum)
		colSums[me] = e.AllreduceF64(colComm, []float64{float64(me)}, OpSum)
	})
	run(t, k)
	for me := 0; me < p*q; me++ {
		row, col := me/q, me%q
		wantRow := float64(row*q*q) + float64(q*(q-1))/2
		wantCol := float64(col*p) + float64(q)*float64(p*(p-1))/2
		if rowSums[me][0] != wantRow || colSums[me][0] != wantCol {
			t.Fatalf("rank %d: row=%v (want %v) col=%v (want %v)",
				me, rowSums[me], wantRow, colSums[me], wantCol)
		}
	}
}

func TestDeadlockDiagnosis(t *testing.T) {
	k, j := newTestJob(t, 2)
	j.Launch(0, func(e *Env) {
		e.Recv(e.World(), 1, 0) // never sent
	})
	j.Launch(1, func(e *Env) {})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
}

func TestCodecRoundtrip(t *testing.T) {
	f := func(v []float64) bool {
		got, err := BytesToF64(F64ToBytes(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] && !(v[i] != v[i] && got[i] != got[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v []int64) bool {
		got, err := BytesToI64(I64ToBytes(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// A length that is not a multiple of 8 is an error for the caller to fail the
// run with, not a panic.
func TestCodecRejectsRaggedLength(t *testing.T) {
	b := make([]byte, 12)
	if v, err := BytesToF64(b); err == nil || v != nil {
		t.Errorf("BytesToF64 of 12 bytes = %v, %v; want an error", v, err)
	}
	if v, err := BytesToI64(b); err == nil || v != nil {
		t.Errorf("BytesToI64 of 12 bytes = %v, %v; want an error", v, err)
	}
}

// Property: AllreduceF64 sum equals the serial sum for random sizes.
func TestQuickAllreduceMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		vec := rng.Intn(5) + 1
		k := sim.NewKernel(seed)
		fab, err := ib.New(k, ib.PaperConfig())
		if err != nil {
			return false
		}
		j, err := NewJob(k, fab, DefaultConfig(), n)
		if err != nil {
			return false
		}
		inputs := make([][]float64, n)
		for i := range inputs {
			inputs[i] = make([]float64, vec)
			for v := range inputs[i] {
				inputs[i][v] = float64(rng.Intn(1000))
			}
		}
		results := make([][]float64, n)
		j.LaunchAll(func(e *Env) {
			results[e.Rank()] = e.AllreduceF64(e.World(), inputs[e.Rank()], OpSum)
		})
		if err := k.Run(); err != nil {
			return false
		}
		for v := 0; v < vec; v++ {
			var want float64
			for i := 0; i < n; i++ {
				want += inputs[i][v]
			}
			for i := 0; i < n; i++ {
				if results[i][v] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLoggingModeOverheadAndStats(t *testing.T) {
	// sendAt returns when rank 0's 1 MiB send completes, and its stats.
	sendAt := func(logged bool) (sim.Time, RankStats) {
		k := sim.NewKernel(1)
		f, err := ib.New(k, ib.PaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.LogMessages = logged
		j, err := NewJob(k, f, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		var sendDone sim.Time
		j.Launch(0, func(e *Env) {
			e.Send(e.World(), 1, 0, make([]byte, 1<<20))
			sendDone = e.p.Now()
		})
		j.Launch(1, func(e *Env) {
			e.Recv(e.World(), 0, 0)
		})
		run(t, k)
		return sendDone, j.Rank(0).Stats()
	}
	plain, _ := sendAt(false)
	logged, s := sendAt(true)
	if s.BytesLogged != 1<<20 {
		t.Fatalf("logging stats: %+v", s)
	}
	// The copy is charged before anything hits the wire: 1 MiB at memCopyBW
	// (2 GiB/s) is 1/2048 s ≈ 0.49 ms.
	if d := logged - plain; d < 480*sim.Microsecond || d > 500*sim.Microsecond {
		t.Fatalf("logging copy delayed the send by %v (plain %v, logged %v), want ≈ 0.49 ms", d, plain, logged)
	}
}

func TestCaptureLibStateRejectsPendingState(t *testing.T) {
	k, j := newTestJob(t, 2)
	var postedErr, rendezvousErr error
	j.Launch(0, func(e *Env) {
		irecv(e, e.World(), 1, 0)
		_, postedErr = e.r.CaptureLibState()
		e.Recv(e.World(), 1, 0) // consume via a second recv? both match in order
	})
	j.Launch(1, func(e *Env) {
		e.Compute(100 * sim.Millisecond)
		e.Send(e.World(), 0, 0, []byte("a"))
		e.Send(e.World(), 0, 0, []byte("b"))
	})
	run(t, k)
	if postedErr == nil {
		t.Fatal("capture with a posted receive must fail")
	}
	_ = rendezvousErr
}

func TestAccessorsAndIntrospection(t *testing.T) {
	k, j := newTestJob(t, 2)
	if j.k != k || j.Size() != 2 || j.Fabric() == nil {
		t.Fatal("job accessors")
	}
	var st Status
	var data []byte
	j.Launch(0, func(e *Env) {
		if e.Size() != 2 || e.r != j.Rank(0) || e.Proc() == nil {
			t.Error("env accessors")
		}
		w := e.World()
		if w.id == 0 || len(w.ranks) != 2 {
			t.Error("comm accessors")
		}
		data, st = e.Recv(w, 1, 0)
	})
	j.Launch(1, func(e *Env) {
		e.Send(e.World(), 0, 0, []byte("acc"))
	})
	run(t, k)
	if string(data) != "acc" || st.Source != 1 {
		t.Fatalf("receive: data=%q st=%+v", data, st)
	}
	if !j.Finished() || j.FinishTime() < 0 {
		t.Fatal("finish accessors")
	}
	r := j.Rank(0)
	if r.World() != 0 || r.job != j || r.Proc() == nil || r.Endpoint() == nil ||
		!r.Finished() || r.finishedAt < 0 {
		t.Fatal("rank accessors")
	}
}

func TestCollectiveCheckpointConsensus(t *testing.T) {
	const n = 3
	k, j := newTestJob(t, n)
	h := &spHooks{}
	served := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		j.Rank(i).SetHooks(h)
	}
	j.LaunchAll(func(e *Env) {
		w := e.World()
		me := e.Rank()
		for it := 0; it < 5; it++ {
			e.CollectiveCheckpoint(w)
			// Skewed compute keeps ranks at different wall-clock points
			// within the same iteration.
			e.Compute(sim.Time(100+10*me) * sim.Millisecond)
		}
		served[me] = e.p.Now()
	})
	// Request lands mid-iteration 2 on every rank (polled): all must serve
	// at the same boundary.
	k.At(250*sim.Millisecond, func() {
		for i := 0; i < n; i++ {
			j.Rank(i).RequestSafePointPolled()
		}
	})
	run(t, k)
	if len(h.calls) != n {
		t.Fatalf("safe points served: %d, want %d (one per rank)", len(h.calls), n)
	}
	// All serve inside the same CollectiveCheckpoint call: the spread is the
	// consensus allreduce latency, far below an iteration.
	var lo, hi sim.Time = 1 << 62, 0
	for _, at := range h.calls {
		if at < lo {
			lo = at
		}
		if at > hi {
			hi = at
		}
	}
	if hi-lo > 10*sim.Millisecond {
		t.Fatalf("safe points spread %v across ranks; consensus broken", hi-lo)
	}
}

func TestPolledRequestNotServedAtOrdinaryCalls(t *testing.T) {
	k, j := newTestJob(t, 2)
	h := &spHooks{}
	j.Rank(0).SetHooks(h)
	j.Launch(0, func(e *Env) {
		e.Compute(100 * sim.Millisecond)     // polled request arrives here
		e.Send(e.World(), 1, 0, []byte("x")) // ordinary call: must NOT serve
		e.Compute(100 * sim.Millisecond)
		e.MaybeCheckpoint() // explicit boundary: serves
	})
	j.Launch(1, func(e *Env) {
		e.Recv(e.World(), 0, 0)
	})
	k.At(50*sim.Millisecond, func() { j.Rank(0).RequestSafePointPolled() })
	run(t, k)
	if len(h.calls) != 1 || h.calls[0] < 200*sim.Millisecond {
		t.Fatalf("polled safe point served at %v, want only at the explicit boundary", h.calls)
	}
}
