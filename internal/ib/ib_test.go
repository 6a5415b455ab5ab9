package ib

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gbcr/internal/sim"
)

// newFabric builds a Fabric, failing the test on a config error.
func newFabric(t testing.TB, k *sim.Kernel, cfg Config) *Fabric {
	t.Helper()
	f, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// addEP registers an endpoint, failing the test on a duplicate id.
func addEP(t testing.TB, f *Fabric, id int) *Endpoint {
	t.Helper()
	ep, err := f.AddEndpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// connect initiates a connection and reports any immediate error on t.
func connect(t testing.TB, ep *Endpoint, peer int, meta int64) {
	t.Helper()
	if err := ep.Connect(peer, meta); err != nil {
		t.Error(err)
	}
}

// testPair builds a kernel, fabric, and two endpoints with immediate
// progress (OnWork = Progress), the configuration used by most tests.
func testPair(t *testing.T) (*sim.Kernel, *Fabric, *Endpoint, *Endpoint) {
	t.Helper()
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a := addEP(t, f, 0)
	b := addEP(t, f, 1)
	a.OnWork = a.Progress
	b.OnWork = b.Progress
	return k, f, a, b
}

func TestConnectHandshake(t *testing.T) {
	k, _, a, b := testPair(t)
	var upA, upB sim.Time = -1, -1
	a.OnConnUp = func(peer int) { upA = k.Now() }
	b.OnConnUp = func(peer int) { upB = k.Now() }
	connect(t, a, 1, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	oob := PaperConfig().OOBLatency
	if upA != 2*oob {
		t.Fatalf("active side up at %v, want %v (REQ+REP)", upA, 2*oob)
	}
	if upB != 3*oob {
		t.Fatalf("passive side up at %v, want %v (REQ+REP+RTU)", upB, 3*oob)
	}
	if !a.Connected(1) || !b.Connected(0) {
		t.Fatal("states not connected")
	}
}

func TestSendRequiresConnection(t *testing.T) {
	_, _, a, _ := testPair(t)
	if err := a.Send(1, 100, "x"); err != ErrNotConnected {
		t.Fatalf("Send without connection: %v, want ErrNotConnected", err)
	}
	connect(t, a, 1, 0)
	if err := a.Send(1, 100, "x"); err != ErrNotConnected {
		t.Fatalf("Send while connecting: %v, want ErrNotConnected", err)
	}
}

func TestDataDeliveryTimingAndOrder(t *testing.T) {
	k, f, a, b := testPair(t)
	type rec struct {
		at      sim.Time
		payload any
	}
	var got []rec
	b.OnMessage = func(src int, size int64, payload any) {
		got = append(got, rec{k.Now(), payload})
	}
	connect(t, a, 1, 0)
	cfg := f.cfg
	const size = 14 * MB // 10ms at 1400 MB/s
	k.At(sim.Millisecond, func() {
		if err := a.Send(1, size, "first"); err != nil {
			t.Errorf("send: %v", err)
		}
		if err := a.Send(1, size, "second"); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].payload != "first" || got[1].payload != "second" {
		t.Fatalf("delivery order wrong: %+v", got)
	}
	tx := sim.Time(float64(size) / cfg.LinkBW * float64(sim.Second))
	want1 := sim.Millisecond + tx + latency
	want2 := sim.Millisecond + 2*tx + latency
	if got[0].at != want1 || got[1].at != want2 {
		t.Fatalf("arrivals %v,%v want %v,%v (egress serialization)",
			got[0].at, got[1].at, want1, want2)
	}
}

func TestCrossingConnects(t *testing.T) {
	k, _, a, b := testPair(t)
	ups := 0
	a.OnConnUp = func(int) { ups++ }
	b.OnConnUp = func(int) { ups++ }
	connect(t, a, 1, 0)
	connect(t, b, 0, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ups != 2 {
		t.Fatalf("OnConnUp fired %d times, want 2", ups)
	}
	if !a.Connected(1) || !b.Connected(0) {
		t.Fatalf("crossing connects failed: a=%v b=%v", a.State(1), b.State(0))
	}
	// Data must flow both ways afterwards.
	delivered := 0
	a.OnMessage = func(int, int64, any) { delivered++ }
	b.OnMessage = func(int, int64, any) { delivered++ }
	k.At(k.Now()+sim.Millisecond, func() {
		if err := a.Send(1, 64, "ab"); err != nil {
			t.Errorf("a->b: %v", err)
		}
		if err := b.Send(0, 64, "ba"); err != nil {
			t.Errorf("b->a: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
}

func TestAcceptConnDeferAndReexamine(t *testing.T) {
	k, _, a, b := testPair(t)
	allow := false
	b.AcceptConn = func(peer int, meta int64) bool { return allow }
	up := false
	a.OnConnUp = func(int) { up = true }
	connect(t, a, 1, 42)
	if err := k.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if up {
		t.Fatal("connection established despite deferred accept")
	}
	if len(b.deferred) != 1 {
		t.Fatalf("deferred connects = %d, want 1", len(b.deferred))
	}
	var meta int64
	b.AcceptConn = func(peer int, m int64) bool { meta = m; return true }
	allow = true
	k.At(k.Now(), b.Reexamine)
	if err := k.RunUntil(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !up || !b.Connected(0) {
		t.Fatal("connection not established after Reexamine")
	}
	if meta != 42 {
		t.Fatalf("meta = %d, want 42 (preserved across deferral)", meta)
	}
}

func TestDisconnectFlushesInFlight(t *testing.T) {
	k, _, a, b := testPair(t)
	var msgAt, downAt sim.Time = -1, -1
	b.OnMessage = func(int, int64, any) { msgAt = k.Now() }
	a.OnConnDown = func(int) {}
	b.OnConnDown = func(int) { downAt = k.Now() }
	connect(t, a, 1, 0)
	k.At(sim.Millisecond, func() {
		// Send a large message and immediately initiate disconnect: the
		// flush marker queues behind the data on the egress.
		if err := a.Send(1, 14*MB, "data"); err != nil {
			t.Errorf("send: %v", err)
		}
		a.Disconnect(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if msgAt < 0 {
		t.Fatal("in-flight message lost by disconnect")
	}
	if downAt <= msgAt {
		t.Fatalf("connection down at %v before message delivery at %v", downAt, msgAt)
	}
	if a.State(1) != StateClosed || b.State(0) != StateClosed {
		t.Fatalf("states after disconnect: %v, %v", a.State(1), b.State(0))
	}
}

func TestDisconnectBothSidesNotified(t *testing.T) {
	k, _, a, b := testPair(t)
	downs := 0
	a.OnConnDown = func(int) { downs++ }
	b.OnConnDown = func(int) { downs++ }
	connect(t, a, 1, 0)
	k.At(sim.Millisecond, func() { a.Disconnect(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if downs != 2 {
		t.Fatalf("OnConnDown fired %d times, want 2", downs)
	}
}

func TestCrossingDisconnects(t *testing.T) {
	k, _, a, b := testPair(t)
	downsA, downsB := 0, 0
	a.OnConnDown = func(int) { downsA++ }
	b.OnConnDown = func(int) { downsB++ }
	connect(t, a, 1, 0)
	k.At(sim.Millisecond, func() {
		a.Disconnect(1)
		b.Disconnect(0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if downsA != 1 || downsB != 1 {
		t.Fatalf("OnConnDown: a=%d b=%d, want 1 each", downsA, downsB)
	}
	if a.State(1) != StateClosed || b.State(0) != StateClosed {
		t.Fatalf("states: %v, %v", a.State(1), b.State(0))
	}
}

func TestSendWhileDrainingFails(t *testing.T) {
	k, _, a, b := testPair(t)
	connect(t, a, 1, 0)
	var sendErrA, sendErrB error
	k.At(sim.Millisecond, func() {
		a.Disconnect(1)
		sendErrA = a.Send(1, 64, "late")
	})
	// The passive side learns of the drain when the flush arrives.
	k.At(2*sim.Millisecond, func() {
		sendErrB = b.Send(0, 64, "late")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sendErrA != ErrDraining {
		t.Fatalf("initiator send while draining: %v", sendErrA)
	}
	// By 2ms the teardown completed, so the passive side sees no connection.
	if sendErrB != ErrNotConnected {
		t.Fatalf("passive send after teardown: %v", sendErrB)
	}
}

func TestReconnectAfterDisconnect(t *testing.T) {
	k, _, a, b := testPair(t)
	delivered := 0
	b.OnMessage = func(int, int64, any) { delivered++ }
	connect(t, a, 1, 0)
	k.At(sim.Millisecond, func() { a.Disconnect(1) })
	k.At(10*sim.Millisecond, func() { connect(t, b, 0, 7) }) // other side initiates this time
	k.At(20*sim.Millisecond, func() {
		if err := a.Send(1, 64, "again"); err != nil {
			t.Errorf("send after reconnect: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d after reconnect, want 1", delivered)
	}
}

func TestCMProcessedWithoutProgress(t *testing.T) {
	// Connection management runs on a dedicated asynchronous thread
	// (MVAPICH2's CM thread): handshakes complete even when neither side
	// ever calls Progress.
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a := addEP(t, f, 0)
	b := addEP(t, f, 1)
	connect(t, a, 1, 0)
	if err := k.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !a.Connected(1) || !b.Connected(0) {
		t.Fatalf("CM thread did not complete handshake: %v %v", a.State(1), b.State(0))
	}
}

func TestProgressDeferralForData(t *testing.T) {
	// In-band traffic queues until Progress — the model of a process busy
	// in computation.
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a := addEP(t, f, 0)
	b := addEP(t, f, 1)
	a.OnWork = a.Progress
	delivered := false
	b.OnMessage = func(int, int64, any) { delivered = true }
	connect(t, a, 1, 0)
	k.At(sim.Millisecond, func() {
		if err := a.Send(1, 64, "payload"); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := k.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered || !b.PendingWork() {
		t.Fatalf("data processed without progress: delivered=%v pending=%v",
			delivered, b.PendingWork())
	}
	b.Progress()
	if !delivered {
		t.Fatal("data not delivered after explicit progress")
	}
}

func TestOOBDelivery(t *testing.T) {
	k, f, a, b := testPair(t)
	var got any
	var at sim.Time
	b.OnOOB = func(src int, payload any) { got, at = payload, k.Now() }
	if err := a.SendOOB(1, "coordination"); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "coordination" || at != f.cfg.OOBLatency {
		t.Fatalf("OOB: got %v at %v", got, at)
	}
}

// recorder is a Handler that logs its upcalls and drives its endpoint's
// progress on Work.
type recorder struct {
	ep     *Endpoint
	refuse bool
	log    []string
}

func (r *recorder) note(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *recorder) Message(src int, size int64, payload any) {
	r.note("message %d %d %v", src, size, payload)
}
func (r *recorder) Work()               { r.note("work"); r.ep.Progress() }
func (r *recorder) ConnUp(peer int)     { r.note("up %d", peer) }
func (r *recorder) ConnDown(peer int)   { r.note("down %d", peer) }
func (r *recorder) OOB(src int, pl any) { r.note("oob %d %v", src, pl) }
func (r *recorder) Accept(peer int, meta int64) bool {
	r.note("accept %d %d", peer, meta)
	return !r.refuse
}

// TestHandlerUpcalls: a handler installed with SetHandler receives each of
// the six upcalls across one connect, send, OOB packet and disconnect, in
// place of the endpoint's Funcs; a refusing Accept defers the connection
// until Reexamine, as AcceptConn does. A bare endpoint (nil Funcs) accepts
// every connection and drops what it receives.
func TestHandlerUpcalls(t *testing.T) {
	k, f, a, b := testPair(t)
	h := &recorder{ep: b, refuse: true}
	b.OnMessage = func(int, int64, any) { t.Error("Funcs.OnMessage called with a handler installed") }
	b.SetHandler(h)
	step := func(want ...string) {
		t.Helper()
		if err := k.RunUntil(k.Now() + 10*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(h.log) != fmt.Sprint(want) {
			t.Fatalf("upcalls %q, want %q", h.log, want)
		}
		h.log = nil
	}
	connect(t, a, 1, 7)
	step("accept 0 7")
	if len(b.deferred) != 1 || a.Connected(1) {
		t.Fatalf("refused connect: %d deferred, connected %v; want 1 deferred, not connected", len(b.deferred), a.Connected(1))
	}
	h.refuse = false
	k.At(k.Now(), b.Reexamine)
	step("accept 0 7", "up 0")
	if err := a.Send(1, 64, "data"); err != nil {
		t.Fatal(err)
	}
	if err := a.SendOOB(1, "ctl"); err != nil {
		t.Fatal(err)
	}
	step("work", "message 0 64 data", "oob 0 ctl")
	a.Disconnect(1)
	step("work", "down 0")

	bare := addEP(t, f, 2)
	connect(t, a, 2, 0)
	if err := k.RunUntil(k.Now() + 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !bare.Connected(0) {
		t.Fatal("a bare endpoint refused a connection")
	}
	if err := a.Send(2, 64, "data"); err != nil {
		t.Fatal(err)
	}
	if err := a.SendOOB(2, "ctl"); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(k.Now() + 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	bare.Progress()
	if st := bare.Stats(); st.MessagesDelivered != 1 || bare.PendingWork() {
		t.Fatalf("bare endpoint: %d delivered, pending %v; want the message delivered and dropped", st.MessagesDelivered, bare.PendingWork())
	}
}

func TestStats(t *testing.T) {
	k, _, a, b := testPair(t)
	b.OnMessage = func(int, int64, any) {}
	connect(t, a, 1, 0)
	k.At(sim.Millisecond, func() {
		if err := a.Send(1, 1000, "x"); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.At(2*sim.Millisecond, func() { a.Disconnect(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	as, bs := a.Stats(), b.Stats()
	if as.ConnectsInitiated != 1 || bs.ConnectsAccepted != 1 {
		t.Fatalf("connect stats: %+v %+v", as, bs)
	}
	if as.Disconnects != 1 || bs.Disconnects != 1 {
		t.Fatalf("disconnect stats: %+v %+v", as, bs)
	}
	if bs.MessagesDelivered != 1 {
		t.Fatalf("delivered: %+v", bs)
	}
	if as.BytesSent < 1000 {
		t.Fatalf("bytes sent: %+v", as)
	}
}

func TestSelfConnectError(t *testing.T) {
	_, _, a, _ := testPair(t)
	if err := a.Connect(0, 0); err == nil {
		t.Fatal("self-connect did not error")
	}
}

func TestDuplicateEndpointError(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	addEP(t, f, 3)
	if _, err := f.AddEndpoint(3); err == nil {
		t.Fatal("duplicate endpoint did not error")
	}
}

// peersOf lists ep's connected peers through EachConn, checking NumConns
// counts the same set.
func peersOf(t *testing.T, ep *Endpoint) []int {
	t.Helper()
	var peers []int
	ep.EachConn(func(peer int, _ ConnState) { peers = append(peers, peer) })
	if ep.NumConns() != len(peers) {
		t.Errorf("NumConns() = %d, EachConn visited %v", ep.NumConns(), peers)
	}
	return peers
}

// EachConn lists connections in ascending peer order whatever order they
// were opened in — a negative id (the checkpoint coordinator's) included —
// and a closed connection is gone from it and from NumConns.
func TestPeersSorted(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a := addEP(t, f, 0)
	a.OnWork = a.Progress
	for _, id := range []int{5, -1, 9, 2, 7, 1} {
		ep := addEP(t, f, id)
		ep.OnWork = ep.Progress
		connect(t, a, id, 0)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(peersOf(t, a)); got != "[-1 1 2 5 7 9]" {
		t.Fatalf("EachConn visited %v", got)
	}
	a.Disconnect(5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(peersOf(t, a)); got != "[-1 1 2 7 9]" {
		t.Fatalf("EachConn visited %v after closing 5", got)
	}
	if s := a.State(5); s != StateClosed {
		t.Fatalf("State(5) = %v after disconnect", s)
	}
	a.EachConn(func(peer int, state ConnState) {
		if state != StateConnected || state != a.State(peer) {
			t.Errorf("EachConn: peer %d in state %v, State says %v", peer, state, a.State(peer))
		}
	})
}

// Property: under random opens, closes and lookups, the connection table
// agrees with a map[int] reference and stays in ascending peer order.
func TestQuickConnTableMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		ep := addEP(t, newFabric(t, k, PaperConfig()), 0)
		ref := make(map[int]*conn)
		for op := 0; op < 300; op++ {
			peer := rng.Intn(33) - 16
			switch c := ref[peer]; {
			case c == nil && rng.Intn(2) == 0:
				ref[peer] = ep.open(peer, nil, StateConnecting, 0)
			case c != nil && rng.Intn(3) == 0:
				ep.closeConn(peer)
				delete(ref, peer)
			}
			if got := ep.connTo(peer); got != ref[peer] {
				t.Errorf("seed %d: connTo(%d) = %p, reference has %p", seed, peer, got, ref[peer])
				return false
			}
			peers := peersOf(t, ep)
			if len(peers) != len(ref) {
				t.Errorf("seed %d: table holds %v, reference %d connections", seed, peers, len(ref))
				return false
			}
			for i, p := range peers {
				if ref[p] == nil || (i > 0 && peers[i-1] >= p) {
					t.Errorf("seed %d: table %v out of order or holding a closed peer", seed, peers)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a random topology with random sends, every message is
// delivered exactly once and per-pair FIFO order holds.
func TestQuickDeliveryExactlyOnceFIFO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		fab := newFabric(t, k, PaperConfig())
		n := rng.Intn(5) + 2
		eps := make([]*Endpoint, n)
		type key struct{ src, dst int }
		recv := make(map[key][]int)
		for i := 0; i < n; i++ {
			i := i
			eps[i] = addEP(t, fab, i)
			eps[i].OnWork = eps[i].Progress
			eps[i].OnMessage = func(src int, size int64, payload any) {
				recv[key{src, i}] = append(recv[key{src, i}], payload.(int))
			}
		}
		// Full mesh.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if err := eps[i].Connect(j, 0); err != nil {
					return false
				}
			}
		}
		// Random sends after the mesh settles. Send times increase
		// monotonically so that per-pair sequence numbers match send order.
		sent := make(map[key]int)
		nmsg := rng.Intn(40)
		at := 10 * sim.Millisecond
		for m := 0; m < nmsg; m++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst {
				continue
			}
			at += sim.Time(rng.Intn(50)) * sim.Microsecond
			kk := key{src, dst}
			seqNum := sent[kk]
			sent[kk]++
			size := int64(rng.Intn(100000) + 1)
			k.At(at, func() {
				if err := eps[src].Send(dst, size, seqNum); err != nil {
					panic(err)
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		//lint:allow-simdeterminism order-independent verification; every entry is checked
		for kk, cnt := range sent {
			got := recv[kk]
			if len(got) != cnt {
				return false
			}
			for i, v := range got {
				if v != i {
					return false // FIFO violated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: random connect/disconnect churn never wedges the state machine:
// after quiescing, every pair is either cleanly closed or cleanly connected
// on both sides.
func TestQuickConnChurnConverges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		fab := newFabric(t, k, PaperConfig())
		const n = 4
		eps := make([]*Endpoint, n)
		for i := 0; i < n; i++ {
			eps[i] = addEP(t, fab, i)
			eps[i].OnWork = eps[i].Progress
		}
		for op := 0; op < 30; op++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			at := sim.Time(rng.Intn(20000)) * sim.Microsecond
			if rng.Intn(2) == 0 {
				k.At(at, func() { connect(t, eps[i], j, 0) })
			} else {
				k.At(at, func() { eps[i].Disconnect(j) })
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				si, sj := eps[i].State(j), eps[j].State(i)
				okClosed := si == StateClosed && sj == StateClosed
				okOpen := si == StateConnected && sj == StateConnected
				if !okClosed && !okOpen {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConnStateString(t *testing.T) {
	if StateConnected.String() != "connected" || StateDraining.String() != "draining" {
		t.Fatal("state names")
	}
}

// TestOnOOBImmediateConsumes: OnOOB consumes every out-of-band payload at
// arrival, in send order, without the owner ever calling Progress.
func TestOnOOBImmediateConsumes(t *testing.T) {
	k, f, a, b := testPair(t)
	b.OnWork = nil // nobody drives b's progress
	var seen []string
	b.OnOOB = func(src int, payload any) {
		if src != 0 || k.Now() != f.cfg.OOBLatency {
			t.Errorf("OOB from %d at %v, want from 0 at %v", src, k.Now(), f.cfg.OOBLatency)
		}
		seen = append(seen, payload.(string))
	}
	if err := a.SendOOB(1, "ctl:checkpoint"); err != nil {
		t.Fatal(err)
	}
	if err := a.SendOOB(1, "ctl:turn"); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "ctl:checkpoint" || seen[1] != "ctl:turn" {
		t.Fatalf("OnOOB saw %v, want [ctl:checkpoint ctl:turn]", seen)
	}
	if b.PendingWork() {
		t.Fatal("an OOB payload was queued for Progress")
	}
}

func TestEgressFreeTracksTransmit(t *testing.T) {
	k, f, a, b := testPair(t)
	connect(t, a, 1, 0)
	var txEnd sim.Time
	const size = 14 * MB // 10ms on the wire
	k.At(sim.Millisecond, func() {
		if err := a.Send(1, size, "x"); err != nil {
			t.Errorf("send: %v", err)
		}
		txEnd = a.EgressFree()
	})
	b.OnMessage = func(int, int64, any) {}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tx := sim.Time(float64(size) / f.cfg.LinkBW * float64(sim.Second))
	if txEnd != sim.Millisecond+tx {
		t.Fatalf("EgressFree = %v, want %v", txEnd, sim.Millisecond+tx)
	}
}

func TestDisconnectNonEstablishedIsNoop(t *testing.T) {
	k, _, a, _ := testPair(t)
	a.Disconnect(1) // no connection at all
	connect(t, a, 1, 0)
	a.Disconnect(1) // still connecting, not established
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The connect completed despite the premature disconnect attempt.
	if !a.Connected(1) {
		t.Fatalf("state: %v", a.State(1))
	}
}

func TestStatsOOBCount(t *testing.T) {
	k, _, a, b := testPair(t)
	delivered := 0
	b.OnOOB = func(int, any) { delivered++ }
	if err := a.SendOOB(1, "one"); err != nil {
		t.Fatal(err)
	}
	if err := a.SendOOB(1, "two"); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().OOBSent != 2 || delivered != 2 {
		t.Fatalf("OOBSent = %d, delivered %d; want 2, 2", a.Stats().OOBSent, delivered)
	}
}

func TestFabricAccessorsAndValidation(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	ep := addEP(t, f, 5)
	if f.endpoint(5) != ep || ep.id != 5 {
		t.Fatal("fabric accessors")
	}
	if f.endpoint(99) != nil || f.endpoint(-1) != nil {
		t.Fatal("unknown endpoint should be nil")
	}
	if ConnState(99).String() == "" {
		t.Fatal("unknown state string")
	}
	if _, err := New(k, Config{}); err == nil {
		t.Fatal("zero LinkBW accepted")
	}
}

func TestStrayControlPacketsIgnored(t *testing.T) {
	// Control packets for unknown or wrongly-stated connections must be
	// ignored without corrupting state.
	k, _, a, b := testPair(t)
	connect(t, a, 1, 0)
	k.At(5*sim.Millisecond, func() {
		// Stray flush/ack toward an established connection's peer with no
		// drain in progress: handleFlushAck must ignore it.
		a.transmit(b, 64, ctlFlushAck{})
		// Stray DiscRep with no disconnect in progress.
		if err := a.SendOOB(1, cmDiscRep{}); err != nil {
			t.Errorf("stray disc-rep: %v", err)
		}
	})
	k.At(10*sim.Millisecond, func() {
		if !a.Connected(1) || !b.Connected(0) {
			t.Error("stray control packets damaged an established connection")
		}
		// The connection still carries data.
		if err := a.Send(1, 64, "still works"); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	delivered := false
	b.OnMessage = func(int, int64, any) { delivered = true }
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("data lost after stray control packets")
	}
}

func TestDuplicateConnReqIgnored(t *testing.T) {
	k, _, a, b := testPair(t)
	connect(t, a, 1, 0)
	// A duplicate REQ arriving after establishment must not reset the
	// connection.
	k.At(5*sim.Millisecond, func() {
		if err := a.SendOOB(1, cmConnReq{meta: 9}); err != nil {
			t.Errorf("duplicate REQ: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Connected(1) || !b.Connected(0) {
		t.Fatalf("duplicate REQ broke the connection: %v %v", a.State(1), b.State(0))
	}
	if b.Stats().ConnectsAccepted != 1 {
		t.Fatalf("accepted %d times", b.Stats().ConnectsAccepted)
	}
}

// TestWindowsOutgrownAlone: a reserved endpoint's connection index and
// in-flight queue start in windows of the fabric's slabs, endpoint 0's just
// before endpoint 1's. Endpoint 1 fills part of both; then endpoint 0 outgrows
// both, connecting to five peers and putting three packets on the wire at
// once. Each moves away on its own: endpoint 1 keeps its connections, and its
// packet arrives as sent.
func TestWindowsOutgrownAlone(t *testing.T) {
	const n = 8
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	f.Reserve(n)
	eps := make([]*Endpoint, n)
	got := make(map[string]int) // payload → receiver
	for i := range eps {
		eps[i] = addEP(t, f, i)
		eps[i].OnWork = eps[i].Progress
		eps[i].OnMessage = func(_ int, _ int64, payload any) { got[payload.(string)] = i }
	}
	a, b := eps[0], eps[1]
	connect(t, b, 2, 0)
	connect(t, b, 3, 0)
	for peer := 2; peer <= 6; peer++ {
		connect(t, a, peer, 0)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	sends := []struct {
		from *Endpoint
		to   int
		what string
	}{{b, 2, "1->2"}, {a, 2, "0->2"}, {a, 3, "0->3"}, {a, 4, "0->4"}}
	for _, s := range sends {
		if err := s.from.Send(s.to, 64, s.what); err != nil {
			t.Fatal(err)
		}
	}
	if a.inflight.len() != 3 || b.inflight.len() != 1 {
		t.Fatalf("%d and %d packets on the wire, want 3 and 1", a.inflight.len(), b.inflight.len())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sends {
		if got[s.what] != s.to {
			t.Errorf("%q arrived at %d, want %d", s.what, got[s.what], s.to)
		}
	}
	for i, want := range []string{"[2 3 4 5 6]", "[2 3]"} {
		ep, peers := eps[i], []int(nil)
		ep.EachConn(func(peer int, state ConnState) {
			if state == StateConnected {
				peers = append(peers, peer)
			}
		})
		if fmt.Sprint(peers) != want {
			t.Errorf("endpoint %d connected to %v, want %s", ep.id, peers, want)
		}
	}
}
