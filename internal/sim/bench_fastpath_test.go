package sim

import "testing"

// Benchmarks for the scheduling fast paths introduced by the zero-alloc
// rework. They use only the public kernel API (no references to internal
// queue state), so the same file compiles against the pre-rework kernel —
// which is how the before/after numbers in README.md were produced.

// benchNop is a shared no-capture callback so the benchmarks measure the
// kernel, not closure allocation.
func benchNop() {}

// BenchmarkParkUnparkPingPong measures the closure-free wake path: two
// processes alternately unpark each other at the same instant, so every
// round trip is two same-instant events plus two resumes (loop → pong →
// loop → ping, four coroutine switches) and zero clock movement.
func BenchmarkParkUnparkPingPong(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	var pa, pb *Proc
	pa = k.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park("bench")
			pb.Unpark()
		}
	})
	pb = k.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			pa.Unpark()
			p.Park("bench")
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCancelChurn measures the timer-churn shape that dominates
// protocol models (arm a retransmission timer, cancel it on the ack): per
// op, one event fires and two are canceled and lazily discarded.
func BenchmarkCancelChurn(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	b.ResetTimer()
	var t Time
	for i := 0; i < b.N; i++ {
		keep := k.At(t+1, benchNop)
		c1 := k.At(t+2, benchNop)
		c2 := k.At(t+3, benchNop)
		c1.Cancel()
		c2.Cancel()
		_ = keep
		t += 3
		if err := k.RunUntil(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSameTimeFanout measures appends to the firing chain: each op is a
// burst of 16 events scheduled at exactly the current instant from inside a
// callback, the Unpark/broadcast shape.
func BenchmarkSameTimeFanout(b *testing.B) {
	k := NewKernel(1)
	var t Time
	done := 0
	n := b.N
	var fanout func()
	fanout = func() {
		for j := 0; j < 16; j++ {
			k.At(t, benchNop)
		}
		done++
		if done < n {
			t += 10
			k.At(t, fanout)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.At(0, fanout)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInstantFanIn measures many processes waking at one instant, the
// CommGroups compute shape: 256 processes each Sleep to one shared future
// instant per round, so an op is one round of 256 timer events and 256
// resumes. The first round (spawns, coroutine starts, queue capacity) runs
// before the timer.
func BenchmarkInstantFanIn(b *testing.B) {
	const procs, period = 256, Time(1000)
	k := NewKernel(1)
	for i := 0; i < procs; i++ {
		k.Spawn("rank", func(p *Proc) {
			for {
				p.Sleep(period - p.Now()%period)
			}
		})
	}
	if err := k.RunUntil(period); err != nil {
		b.Fatal(err)
	}
	start := k.EventsProcessed()
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.RunUntil(Time(b.N+1) * period); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.EventsProcessed()-start), "ns/event")
	k.Shutdown()
}
