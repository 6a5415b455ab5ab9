package mpi

import (
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/sim"
)

// benchPingPong times b.N round trips between two ranks; a round trip is two
// calls of leg on each rank, one with send set. The job is built, both ranks
// launched, the connection established and a few round trips made before the
// timer starts, so ns/op and allocs/op are what a round trip costs in steady
// state.
func benchPingPong(b *testing.B, leg func(e *Env, w *Comm, peer int, send bool)) {
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
	j.LaunchAll(func(e *Env) {
		w := e.World()
		peer, leads := 1-e.Rank(), e.Rank() == 0
		roundTrip := func() {
			leg(e, w, peer, leads)
			leg(e, w, peer, !leads)
		}
		for i := 0; i < 8; i++ { // free lists and FIFOs reach their steady depth
			roundTrip()
		}
		e.Compute(10 * sim.Millisecond) // the warm-up ends well inside this
		for i := 0; i < n; i++ {
			roundTrip()
		}
	})
	if err := k.RunUntil(5 * sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer() // ReportMetric allocates its map
	b.ReportMetric(float64(2*n)/b.Elapsed().Seconds(), "simmsgs/s")
}

// BenchmarkPingPong measures simulated-message throughput through the full
// stack (matching, protocol, fabric events) in wall-clock terms, with 256
// bytes of content a message: the one allocation a message is its eager
// communication buffer.
func BenchmarkPingPong(b *testing.B) {
	payload := make([]byte, 256)
	benchPingPong(b, func(e *Env, w *Comm, peer int, send bool) {
		if send {
			e.Send(w, peer, 0, payload)
		} else {
			e.Recv(w, peer, 0)
		}
	})
}

// BenchmarkPingPongSizeOnly8 is the size-only counterpart of the ladder's
// mpi.pingpong_8b_ns rung (bench/, which carries 8 bytes of content): 8-byte
// messages with no bytes behind them, two SendrecvSize exchanges per round
// trip, zero allocations.
func BenchmarkPingPongSizeOnly8(b *testing.B) {
	benchPingPong(b, func(e *Env, w *Comm, peer int, _ bool) {
		e.SendrecvSize(w, peer, 0, 8, peer, 0)
	})
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
