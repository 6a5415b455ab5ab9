package sim

import "testing"

// BenchmarkEventThroughput measures raw kernel event dispatch.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	var t Time
	fired := 0
	var self func()
	self = func() {
		fired++
		if fired < b.N {
			t += 10
			k.At(t, self)
		}
	}
	k.At(0, self)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fired), "events")
}

// BenchmarkSelfWake measures a park that ends in a wake of the same process:
// an op is one park, one event and one resume. It cost no switch at all while
// the parking process ran the event loop itself (≈ 45 ns); a coroutine can
// only switch back to the loop that resumed it, so a self-wake now makes the
// same round trip as any other wake (≈ 230 ns). Deliberate: DESIGN §4.17.
func BenchmarkSelfWake(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandOff measures the process switch proper: two processes
// sleep alternately (offset by half a period), so each park's next event
// wakes the other one — one park, one event and one resume (two coroutine
// switches) per op.
func BenchmarkProcHandOff(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	for _, offset := range []Time{0, 5} {
		k.Spawn("p", func(p *Proc) {
			p.Sleep(offset)
			for i := 0; i < n/2; i++ {
				p.Sleep(10)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
