package ib

import (
	"testing"

	"gbcr/internal/sim"
)

// These gates pin the fabric's per-packet path at zero allocations once its
// queues are warm, in the style of internal/sim/alloc_test.go: a packet is a
// slot in the sender's in-flight FIFO, one pooled kernel event firing a
// func value bound at AddEndpoint, and a slot in the receiver's work queue.
// Payloads are pointers, as the MPI layer's are, so nothing is boxed.

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
// delivery, through its own FIFO.
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
