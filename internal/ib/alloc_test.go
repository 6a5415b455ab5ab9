package ib

import (
	"fmt"
	"testing"
	"unsafe"

	"gbcr/internal/sim"
)

// These gates pin the fabric's per-packet path at zero allocations once its
// queues are warm, in the style of internal/sim/alloc_test.go: an in-band
// packet is a slot in the sender's in-flight FIFO, one pooled kernel event
// firing a func value bound at AddEndpoint, and a slot in the receiver's work
// queue. Payloads are pointers, as the MPI layer's are, so nothing is boxed.

// TestZeroAllocTransmitDeliverProgress: Send → arrival → Progress →
// OnMessage, with the receiver polling (the MPI progress rule) so the work
// queue backs up and drains.
func TestZeroAllocTransmitDeliverProgress(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a, b := addEP(t, f, 0), addEP(t, f, 1)
	a.OnWork = a.Progress
	delivered := 0
	b.OnMessage = func(src int, size int64, payload any) { delivered++ }
	connect(t, a, 1, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	pkt := new(int)
	burst := func() {
		for i := 0; i < 8; i++ {
			if err := a.Send(1, 64, pkt); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		b.Progress()
	}
	burst() // warm both FIFOs and the kernel's event pool
	delivered = 0
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Fatalf("8 packets through Send/deliver/Progress allocate %v, want 0", avg)
	}
	if delivered != 101*8 {
		t.Fatalf("delivered %d packets, want %d", delivered, 101*8)
	}
}

// TestZeroAllocOOB: the out-of-band channel rides the same closure-free
// delivery, through the fabric's one out-of-band FIFO (bound at New).
func TestZeroAllocOOB(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a, b := addEP(t, f, 0), addEP(t, f, 1)
	seen := 0
	b.OnOOB = func(src int, payload any) { seen++ }
	msg := new(int)
	burst := func() {
		for i := 0; i < 4; i++ {
			if err := a.SendOOB(1, msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	seen = 0
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Fatalf("4 OOB messages allocate %v, want 0", avg)
	}
	if seen != 101*4 {
		t.Fatalf("saw %d OOB messages, want %d", seen, 101*4)
	}
}

// TestFIFOReusesAndClears: a queue that never fully drains still stops
// growing, and a popped slot no longer holds its element (the payload it
// carried may have been recycled by its owner).
func TestFIFOReusesAndClears(t *testing.T) {
	var q fifo[*int]
	v := new(int)
	q.push(v)
	for i := 0; i < 1000; i++ { // always one element behind: never empty
		q.push(v)
		if q.pop() != v {
			t.Fatal("pop returned the wrong element")
		}
	}
	if cap(q.buf) > 8 {
		t.Fatalf("backing array grew to %d slots for a backlog of 2", cap(q.buf))
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if live := i >= q.head && i < len(q.buf); !live && p != nil {
			t.Fatalf("slot %d outside the live window [%d,%d) still holds its element", i, q.head, len(q.buf))
		}
	}
	if q.len() != 1 || q.pop() != v || q.len() != 0 {
		t.Fatal("queue lost an element")
	}
}

// TestZeroAllocReconnect: a checkpoint tears every connection down and
// rebuilds it. A closed connection keeps its record, so on a warm pair the
// whole flush → disconnect → connect round allocates nothing, and in between
// the closed peer is closed to every accessor.
func TestZeroAllocReconnect(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a, b := addEP(t, f, 0), addEP(t, f, 1)
	a.OnWork, b.OnWork = a.Progress, b.Progress
	var bad string
	cycle := func() {
		a.Disconnect(1)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		visited := 0
		a.EachConn(func(int, ConnState) { visited++ })
		if a.State(1) != StateClosed || b.State(0) != StateClosed || a.NumConns() != 0 || visited != 0 {
			bad = "closed peer still visible after disconnect"
		}
		if err := a.Connect(1, 0); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !a.Connected(1) || !b.Connected(0) || a.NumConns() != 1 || b.NumConns() != 1 {
			bad = "reconnect did not establish both sides"
		}
	}
	connect(t, a, 1, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	cycle() // warm the queues and the kernel's event pool
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("disconnect and reconnect allocate %v, want 0", avg)
	}
	if bad != "" {
		t.Fatal(bad)
	}
	if len(a.conns) != 1 || len(b.conns) != 1 {
		t.Fatalf("records: %d and %d, want one each", len(a.conns), len(b.conns))
	}
}

// TestConnRecordStable: connection records come from the fabric's slab, in
// chunks of one record an endpoint, and never move. A record keeps its address
// while its endpoint opens connections toward other peers — past a chunk's
// end, since both sides of each take one — and through a close and reopen.
func TestConnRecordStable(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	eps := []*Endpoint{addEP(t, f, 0)}
	for id := 1; id <= 5; id++ {
		eps = append(eps, addEP(t, f, id))
	}
	for _, ep := range eps {
		ep.OnWork = ep.Progress
	}
	a := eps[0]
	connect(t, a, 1, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	mine, theirs := a.connTo(1), eps[1].connTo(0)
	check := func(when string) {
		if a.connTo(1) != mine || eps[1].connTo(0) != theirs {
			t.Fatalf("%s: the pair's records moved", when)
		}
	}
	for peer := 2; peer <= 5; peer++ {
		connect(t, a, peer, 0)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after connecting to %d", peer))
	}
	a.Disconnect(1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	connect(t, a, 1, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	check("after a disconnect and reconnect")
	if a.NumConns() != 5 || len(a.conns) != 5 {
		t.Fatalf("%d open connections in %d records, want 5 in 5", a.NumConns(), len(a.conns))
	}
}

// TestOOBOrderAcrossEndpoints: out-of-band packets from many senders share
// one fabric-wide FIFO. Sent at one instant or at interleaved instants, with
// the wire latency or without it (where every packet goes through the
// kernel's equal-time order), each receiver sees its packets in send order,
// from the right source, one latency after they were sent.
func TestOOBOrderAcrossEndpoints(t *testing.T) {
	type pkt struct {
		src, dst int
		at       sim.Time
	}
	for _, cfg := range []Config{PaperConfig(), {LinkBW: PaperConfig().LinkBW}} {
		for _, spread := range []sim.Time{0, 50 * sim.Microsecond} {
			k := sim.NewKernel(1)
			f := newFabric(t, k, cfg)
			senders := []*Endpoint{addEP(t, f, 0), addEP(t, f, 1), addEP(t, f, 2)}
			var got, want [2][]*pkt // by receiver, 10 and 11
			for _, id := range []int{10, 11} {
				id := id
				addEP(t, f, id).OnOOB = func(src int, payload any) {
					p := payload.(*pkt)
					if p.src != src || p.dst != id || k.Now() != p.at+cfg.OOBLatency {
						t.Errorf("latency %v spread %v: %+v arrived at %d from %d at %v",
							cfg.OOBLatency, spread, *p, id, src, k.Now())
					}
					got[id-10] = append(got[id-10], p)
				}
			}
			for i := 0; i < 12; i++ {
				src, dst := senders[(i*2)%3], 10+i%2
				at := sim.Millisecond + sim.Time(i/3)*spread
				p := &pkt{src: src.id, dst: dst, at: at}
				want[dst-10] = append(want[dst-10], p)
				k.At(at, func() {
					if err := src.SendOOB(dst, p); err != nil {
						t.Error(err)
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for r, w := range want {
				if len(got[r]) != len(w) {
					t.Fatalf("latency %v spread %v: %d got %d packets, want %d",
						cfg.OOBLatency, spread, 10+r, len(got[r]), len(w))
				}
				for i := range w {
					if got[r][i] != w[i] {
						t.Errorf("latency %v spread %v: %d's packet %d is %+v, want %+v",
							cfg.OOBLatency, spread, 10+r, i, *got[r][i], *w[i])
					}
				}
			}
		}
	}
}

// TestEachQueuedOwnOOB: the out-of-band FIFO is the fabric's, but EachQueued
// reports only the packets the endpoint itself sent.
func TestEachQueuedOwnOOB(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFabric(t, k, PaperConfig())
	a, b, c := addEP(t, f, 0), addEP(t, f, 1), addEP(t, f, 2)
	b.OnOOB = func(int, any) {}
	pa1, pa2, pc := new(int), new(int), new(int)
	for _, s := range []struct {
		ep *Endpoint
		p  *int
	}{{a, pa1}, {c, pc}, {a, pa2}} {
		if err := s.ep.SendOOB(1, s.p); err != nil {
			t.Fatal(err)
		}
	}
	queued := func(ep *Endpoint) (ps []any) {
		ep.EachQueued(func(p any) { ps = append(ps, p) })
		return ps
	}
	if q := queued(a); len(q) != 2 || q[0] != pa1 || q[1] != pa2 {
		t.Fatalf("sender 0 reports %v, want its two payloads", q)
	}
	if q := queued(c); len(q) != 1 || q[0] != pc {
		t.Fatalf("sender 2 reports %v, want its one payload", q)
	}
	if q := queued(b); len(q) != 0 {
		t.Fatalf("the receiver reports %v before anything arrived", q)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if q := queued(a); len(q) != 0 {
		t.Fatalf("sender 0 reports %v after delivery", q)
	}
}

// TestQueueRecordSizes: a packet on the wire is one queue slot. Its source is
// the in-band queue's owner, and the OOB queue carries only out-of-band
// packets, so neither record stores what its queue already says: both fit
// 32 B. An in-band flight carrying its source and an oob flag was 48 B, and
// cost hpl_sweep about 0.31 MB a repetition in queue growth.
func TestQueueRecordSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size, max uintptr
	}{
		{"flight", unsafe.Sizeof(flight{}), 32},
		{"oobFlight", unsafe.Sizeof(oobFlight{}), 32},
	} {
		if tc.size > tc.max {
			t.Errorf("%s is %d B, want at most %d", tc.name, tc.size, tc.max)
		}
	}
}
