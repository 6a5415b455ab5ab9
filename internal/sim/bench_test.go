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
// a lone sleeper fires its own timer in the loop it drives while parked, so
// an op is one park, one event and no goroutine hand-off.
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
// wakes the other one — one park, one event and one goroutine hand-off per op.
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
