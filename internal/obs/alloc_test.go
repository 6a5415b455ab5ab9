package obs

import (
	"testing"

	"gbcr/internal/sim"
)

// TestKernelObserverAllocsBounded pins the cost of full observation on the
// kernel's scheduling hot path: with a Bus, a MemorySink, and the metrics
// counters all attached, a Park/Unpark round trip (one wake event, two
// emitted span events, one counter increment) must stay within a small
// constant allocation budget — the sink's amortized slice growth — rather
// than allocating per event. The kernel side is locked at exactly zero by
// internal/sim's alloc tests; this covers the observer adapter itself.
func TestKernelObserverAllocsBounded(t *testing.T) {
	k := sim.NewKernel(1)
	mem := &MemorySink{}
	bus := NewBus(mem)
	ObserveKernel(k, bus)

	p := k.Spawn("rank0", func(p *sim.Proc) {
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
	for i := 0; i < 64; i++ { // warm the pool, counters, and sink buffer
		roundTrip()
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	// Each round trip appends two events to the sink; amortized growth of
	// the backing array is well under one allocation per run.
	if avg > 2 {
		t.Fatalf("observed round trip allocates %v/op, want <= 2", avg)
	}
	if len(mem.Events()) == 0 {
		t.Fatal("sink recorded nothing; observation was not active")
	}

	snap := bus.Metrics().Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "parks" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("parks counter not incremented through the cached handle")
	}

	p.Interrupt()
	if err := k.RunUntil(k.Now()); err != nil {
		t.Fatal(err)
	}
}
