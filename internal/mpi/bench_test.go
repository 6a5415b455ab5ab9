package mpi

import (
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/sim"
)

// BenchmarkPingPong measures simulated-message throughput through the full
// stack (matching, protocol, fabric events) in wall-clock terms.
func BenchmarkPingPong(b *testing.B) {
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	j, err := NewJob(k, f, DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	payload := make([]byte, 256)
	j.Launch(0, func(e *Env) {
		w := e.World()
		for i := 0; i < n; i++ {
			e.Send(w, 1, 0, payload)
			e.Recv(w, 1, 0)
		}
	})
	j.Launch(1, func(e *Env) {
		w := e.World()
		for i := 0; i < n; i++ {
			e.Recv(w, 0, 0)
			e.Send(w, 0, 0, payload)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(2*n)/b.Elapsed().Seconds(), "simmsgs/s")
}

// BenchmarkAllreduce32 measures a 32-rank allreduce through the stack.
func BenchmarkAllreduce32(b *testing.B) {
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	j, err := NewJob(k, f, DefaultConfig(), 32)
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	j.LaunchAll(func(e *Env) {
		w := e.World()
		in := []float64{float64(e.Rank())}
		for i := 0; i < n; i++ {
			e.AllreduceF64(w, in, OpSum)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBcast32SizeOnly1M measures a 32-rank broadcast of a 1 MiB
// size-only payload: 31 rendezvous transfers whose host cost (ns/op and
// B/op) must not depend on the megabyte.
func BenchmarkBcast32SizeOnly1M(b *testing.B) {
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	j, err := NewJob(k, f, DefaultConfig(), 32)
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	j.LaunchAll(func(e *Env) {
		w := e.World()
		for i := 0; i < n; i++ {
			e.BcastSize(w, 0, 1<<20)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
