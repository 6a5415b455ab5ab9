package mpi

import (
	"runtime"
	"testing"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// countSink counts events and reads nothing else of them: the shape of a
// checker or a counter attached to a run.
type countSink struct{ n int }

func (s *countSink) Emit(obs.Event) { s.n++ }

// steadyMallocs runs round as an endless loop on every rank of a job observed
// through bus (nil for none), lets it warm the free lists, FIFOs and kernel
// pools, and then reports the heap objects allocated while rank 0 finishes at
// least 50 more rounds, together with how many it did finish.
func steadyMallocs(t *testing.T, ranks int, bus *obs.Bus, round func(e *Env, w *Comm, i int)) (mallocs uint64, rounds int) {
	t.Helper()
	k, j := newTestJob(t, ranks)
	j.SetObs(bus)
	t.Cleanup(k.Shutdown) // the bodies never return
	done := 0
	j.LaunchAll(func(e *Env) {
		w := e.World()
		for i := 0; ; i++ {
			round(e, w, i)
			if e.Rank() == 0 {
				done++
			}
		}
	})
	advance := func() {
		for target := done + 50; done < target; {
			if err := k.RunUntil(k.Now() + sim.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	advance()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := done
	advance()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, done - start
}

// The message path allocates nothing in steady state: a point-to-point
// message is a recycled request at each end, a recycled packet, FIFO slots in
// the fabric and a pooled kernel event — over eager and rendezvous, blocking
// calls and collectives alike, the library's own coordination traffic
// included: the safe-point poll's value rides in the payload's word. The one
// exception is the model's own: an eager
// send that carries content copies it into a communication buffer
// (payload.clone), one allocation a message. Each case runs unobserved and
// again with a counting sink attached, and both read the same budget: an emit
// site passes values and only a sink that prints formats them
// (obs.Event.Text), so observing a run does not put allocation back on the
// message path.
func TestSteadyStateMessageAllocs(t *testing.T) {
	pingPong := func(data []byte) func(e *Env, w *Comm, i int) {
		return func(e *Env, w *Comm, _ int) {
			if peer := 1 - e.Rank(); e.Rank() == 0 {
				e.Send(w, peer, 0, data)
				e.Recv(w, peer, 0)
			} else {
				e.Recv(w, peer, 0)
				e.Send(w, peer, 0, data)
			}
		}
	}
	ring := func(n int64) func(e *Env, w *Comm, i int) {
		return func(e *Env, w *Comm, _ int) {
			size := e.Size()
			e.SendrecvSize(w, (e.Rank()+1)%size, 0, n, (e.Rank()+size-1)%size, 0)
		}
	}
	// An eager broadcast never blocks its root, so the root rotates: every
	// rank must receive round i before it can lead round i+1.
	bcast := func(n int64) func(e *Env, w *Comm, i int) {
		return func(e *Env, w *Comm, i int) { e.BcastSize(w, i%e.Size(), n) }
	}
	cases := []struct {
		name     string
		ranks    int
		round    func(e *Env, w *Comm, i int)
		perRound uint64 // allocations one round is allowed, summed over ranks
	}{
		{"eager size-only 8 B SendrecvSize ring", 4, ring(8), 0},
		{"eager 8 B word SendrecvWord ring", 4, func(e *Env, w *Comm, i int) {
			size := e.Size()
			e.SendrecvWord(w, (e.Rank()+1)%size, 0, uint64(i), (e.Rank()+size-1)%size, 0)
		}, 0},
		{"eager empty Send/Recv ping-pong", 2, pingPong(nil), 0},
		{"eager 8 B content ping-pong", 2, pingPong(make([]byte, 8)), 2}, // two messages, one clone each
		{"rendezvous size-only 1 MiB SendrecvSize ring", 4, ring(1 << 20), 0},
		{"Barrier on 32 ranks", 32, func(e *Env, w *Comm, _ int) { e.Barrier(w) }, 0},
		{"BcastSize 1 KiB on 32 ranks", 32, bcast(1 << 10), 0},
		{"BcastSize 1 MiB on 32 ranks", 32, bcast(1 << 20), 0},
		// What every restartable workload runs once an iteration.
		{"CollectiveCheckpoint poll on 32 ranks", 32, func(e *Env, w *Comm, _ int) { e.CollectiveCheckpoint(w) }, 0},
		// The Ring's iteration between checkpoints, and the checkpoint layer's
		// release of a destination with nothing deferred toward it.
		{"Compute, word exchange and MaybeCheckpoint ring", 4, func(e *Env, w *Comm, i int) {
			size := e.Size()
			next := (e.Rank() + 1) % size
			e.Compute(sim.Microsecond)
			e.SendrecvWord(w, next, 0, uint64(i), (e.Rank()+size-1)%size, 0)
			e.MaybeCheckpoint()
			e.r.ReleaseDst(next)
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, observed := range []bool{false, true} {
				var bus *obs.Bus
				sink := &countSink{}
				name := "no sink"
				if observed {
					bus, name = obs.NewBus(sink), "counting sink"
				}
				t.Run(name, func(t *testing.T) {
					mallocs, rounds := steadyMallocs(t, tc.ranks, bus, tc.round)
					// Whole allocations per round, as testing.AllocsPerRun
					// reports them: the runtime's own stray allocation (a GC
					// worker starting, the race detector) rounds away, one
					// reintroduced per message is at least two a round.
					if got := mallocs / uint64(rounds); got != tc.perRound {
						t.Errorf("%d allocations over %d rounds = %d per round, want %d", mallocs, rounds, got, tc.perRound)
					}
					if observed && sink.n == 0 {
						t.Error("the counting sink saw no event")
					}
				})
			}
		})
	}
}

// A checkpoint gates a destination and later releases it, every cycle. A
// drained outbox keeps its array, so from the second cycle on deferring
// packets toward the same peer and draining them allocate nothing: the
// packets come from the job's free list and return to it at the receiver.
func TestOutboxKeepsArrayAllocs(t *testing.T) {
	k, j := newTestJob(t, 2)
	h := &spHooks{gate: map[int]bool{1: false}}
	r, b := j.Rank(0), j.Rank(1)
	r.SetHooks(h)
	cycle := func() {
		h.gate[1] = true
		for i := 0; i < 4; i++ {
			r.post(r.peer(1), outItem{kind: outEager, size: eagerHdrSize, pkt: j.newPkt(pktEager)})
		}
		if outboxLen(r, 1) != 4 {
			t.Fatalf("the gated outbox holds %d packets, want 4", outboxLen(r, 1))
		}
		h.gate[1] = false
		r.ReleaseDst(1) // the first cycle connects on demand and drains at conn-up
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		b.progressNow() // the packets arrive as unexpected messages and are recycled
		clear(b.unexpected)
		b.unexpected = b.unexpected[:0]
		if outboxLen(r, 1) != 0 {
			t.Fatalf("the released outbox still holds %d packets", outboxLen(r, 1))
		}
	}
	cycle() // connects, and warms the fabric's queues, the kernel's event pool and the packet free list
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a gate-close and drain cycle allocates %v, want 0", avg)
	}
}
