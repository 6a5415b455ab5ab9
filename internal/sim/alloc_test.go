package sim

import (
	"testing"
	"unsafe"
)

// nop is a shared no-capture callback: referencing it allocates nothing, so
// the alloc counts below measure only the kernel.
func nop() {}

// nopObserver is an installed-but-free observer: it proves the kernel-side
// observer hooks add zero allocations (no boxing, no closures) and leaves
// any per-event cost to the observer implementation itself.
type nopObserver struct{}

func (nopObserver) ProcSpawned(Time, string)        {}
func (nopObserver) ProcParked(Time, string, string) {}
func (nopObserver) ProcUnparked(Time, string)       {}
func (nopObserver) ProcDone(Time, string)           {}

// These tests lock in the zero-alloc steady state of the scheduling hot
// path. They are regression gates: if a future change reintroduces a
// per-event allocation — an event not taken from the pool, a closure on the
// wake path, interface boxing in the queue — they fail immediately rather
// than letting the garbage creep back in silently.

// TestZeroAllocAfterFireCycle: one After + fire through the heap path.
func TestZeroAllocAfterFireCycle(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 64; i++ { // warm the pool and the heap's backing array
		k.After(1, nop)
	}
	if err := k.RunUntil(k.Now() + 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		k.After(1, nop)
		if err := k.RunUntil(k.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("After+fire cycle allocates %v/op, want 0", avg)
	}
}

// TestZeroAllocAtNowCycle: one At(now) + fire through the run-queue path.
func TestZeroAllocAtNowCycle(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 64; i++ {
		k.At(k.Now(), nop)
	}
	if err := k.RunUntil(k.Now()); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		k.At(k.Now(), nop)
		if err := k.RunUntil(k.Now()); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("At(now)+fire cycle allocates %v/op, want 0", avg)
	}
}

// TestZeroAllocParkUnparkRoundTrip: a full Park/Unpark round trip — wake
// event, coroutine switch to the process, re-park, switch back.
func TestZeroAllocParkUnparkRoundTrip(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("pinger", func(p *Proc) {
		for !p.Park("alloc-test") {
		}
	})
	if err := k.RunUntil(k.Now()); err != nil { // start the proc; it parks
		t.Fatal(err)
	}
	roundTrip := func() {
		p.Unpark()
		if err := k.RunUntil(k.Now()); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the pool
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg != 0 {
		t.Fatalf("Park/Unpark round trip allocates %v/op, want 0", avg)
	}
	p.Interrupt() // let the proc exit
	if err := k.RunUntil(k.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocSleepCycle: a timed park — the Sleep/timer-wake cycle that
// dominates compute-bound workloads.
func TestZeroAllocSleepCycle(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	if err := k.RunUntil(k.Now() + 10); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := k.RunUntil(k.Now() + 10); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Sleep cycle allocates %v/op, want 0", avg)
	}
	k.Shutdown()
}

// TestZeroAllocInterruptedSleep: the checkpoint signal's path — Interrupt
// cuts a SleepI short and the process consumes the interrupt and computes on
// — and a Pending check on an armed timer (the helper thread's tick).
func TestZeroAllocInterruptedSleep(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("computer", func(p *Proc) {
		for {
			p.SleepI(1000)
			p.InterruptPending(true)
		}
	})
	far := k.After(1_000_000_000, nop)
	if err := k.RunUntil(k.Now()); err != nil { // start the proc; it sleeps
		t.Fatal(err)
	}
	cycle := func() {
		p.Interrupt()
		if !far.Pending() {
			t.Fatal("the far-off timer is no longer pending")
		}
		if err := k.RunUntil(k.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pool and the heap's backing array
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("interrupted SleepI cycle allocates %v/op, want 0", avg)
	}
	k.Shutdown()
}

// TestZeroAllocWithNoopObserver: the observer hooks themselves must not
// allocate — with an observer attached that does nothing, the park/unpark
// round trip stays at zero.
func TestZeroAllocWithNoopObserver(t *testing.T) {
	k := NewKernel(1)
	k.SetObserver(nopObserver{})
	p := k.Spawn("pinger", func(p *Proc) {
		for !p.Park("alloc-test") {
		}
	})
	if err := k.RunUntil(k.Now()); err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		p.Unpark()
		if err := k.RunUntil(k.Now()); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg != 0 {
		t.Fatalf("observed Park/Unpark round trip allocates %v/op, want 0", avg)
	}
	p.Interrupt()
	if err := k.RunUntil(k.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocCancelDiscard: canceling and lazily discarding events must
// not allocate either — the cancel-heavy churn path recycles through the
// free list.
func TestZeroAllocCancelDiscard(t *testing.T) {
	k := NewKernel(1)
	cycle := func() {
		keep := k.After(1, nop)
		drop := k.After(2, nop)
		drop.Cancel()
		_ = keep
		if err := k.RunUntil(k.Now() + 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(200, cycle)
	if avg != 0 {
		t.Fatalf("schedule+cancel cycle allocates %v/op, want 0", avg)
	}
}

// TestEventSize: an event is 64 B, a size class of its own, so a chunk of
// eventChunk events costs no more than as many single ones. With wakeKind an
// int it was 72 B, which the allocator rounds up to 80.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Errorf("event is %d B, want 64", got)
	}
}
