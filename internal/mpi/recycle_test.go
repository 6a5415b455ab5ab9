package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gbcr/internal/sim"
)

// p2pPlan is one phase of random point-to-point traffic on n ranks: dsts[src]
// lists, in order, the destination of each message src sends, and expect[dst]
// is how many messages dst must receive.
type p2pPlan struct {
	dsts   [][]int
	expect []int
}

func newP2PPlan(rng *rand.Rand, n int) p2pPlan {
	p := p2pPlan{dsts: make([][]int, n), expect: make([]int, n)}
	for src := 0; src < n; src++ {
		for i, cnt := 0, rng.Intn(6); i < cnt; i++ {
			if dst := rng.Intn(n); dst != src {
				p.dsts[src] = append(p.dsts[src], dst)
				p.expect[dst]++
			}
		}
	}
	return p
}

type recvd struct{ src, seq int }

// run is one rank's part of the plan: nonblocking sends of random length
// either side of the eager threshold (handles the caller keeps), wildcard
// blocking receives (the library's own recycled requests), then a wait on
// every send.
// Messages carry the plan's id and their index at the sender; what arrives
// is appended to got. The rng is shared by the ranks, which the kernel runs
// one at a time in a deterministic order.
func (p p2pPlan) run(e *Env, w *Comm, rng *rand.Rand, id int, got *[]recvd) error {
	me := e.Rank()
	var reqs []*Request
	for seq, dst := range p.dsts[me] {
		data := make([]byte, 16+rng.Intn(64<<10))
		copy(data, I64ToBytes([]int64{int64(id), int64(seq)}))
		reqs = append(reqs, isend(e, w, dst, 1, data))
	}
	for i := 0; i < p.expect[me]; i++ {
		data, st := e.Recv(w, ANY, 1)
		hdr, err := BytesToI64(data[:16])
		if err != nil {
			return err
		}
		if int(hdr[0]) != id || st.Size != int64(len(data)) {
			return fmt.Errorf("rank %d received a message of plan %d, %d bytes with Status.Size %d; want plan %d",
				me, hdr[0], len(data), st.Size, id)
		}
		*got = append(*got, recvd{st.Source, int(hdr[1])})
	}
	wait(e, reqs...)
	return nil
}

// delivered reports whether dst received exactly its share of the plan, in
// order per source.
func (p p2pPlan) delivered(dst int, got []recvd) error {
	if len(got) != p.expect[dst] {
		return fmt.Errorf("rank %d received %d messages, want %d", dst, len(got), p.expect[dst])
	}
	last := make(map[int]int)
	for _, rc := range got {
		if prev, ok := last[rc.src]; ok && rc.seq <= prev {
			return fmt.Errorf("rank %d received %d after %d from rank %d", dst, rc.seq, prev, rc.src)
		}
		last[rc.src] = rc.seq
	}
	return nil
}

// checkRecycling asserts the ownership rules of DESIGN §4.15 on a job at
// rest, finished or killed: nothing on a free list is blank-less, listed
// twice, or still reachable from a queue — a request from posted, a
// rendezvous slot or an outbox item; a packet from an outbox or from anywhere
// the fabric holds payloads — and the matching queues keep no reference in
// the slots they vacated. The rendezvous free chain holds every empty slot
// once and no occupied one, and a finished job leaves no slot occupied.
func checkRecycling(j *Job) error {
	freePkt := make(map[*wirePkt]bool)
	for _, p := range j.pktFree {
		if freePkt[p] {
			return fmt.Errorf("packet %p is on the free list twice", p)
		}
		if p.kind != 0 || p.comm != 0 || p.seq != 0 || p.sendID != 0 || p.recvID != 0 || p.size != 0 || p.data != nil {
			return fmt.Errorf("free packet %p is not blank: %+v", p, *p)
		}
		freePkt[p] = true
	}
	freeReq := make(map[*Request]bool)
	for _, req := range j.reqFree {
		if freeReq[req] {
			return fmt.Errorf("request %p is on the free list twice", req)
		}
		if req.r != nil || req.complete || req.isSend || req.comm != nil || req.data != nil || req.discard {
			return fmt.Errorf("free request %p is not blank: %+v", req, *req)
		}
		freeReq[req] = true
	}
	for _, r := range j.ranks {
		live := func(where string, req *Request) error {
			if freeReq[req] {
				return fmt.Errorf("rank %d: request %p is on the free list and in %s", r.world, req, where)
			}
			return nil
		}
		for _, req := range r.posted {
			if err := live("posted", req); err != nil {
				return err
			}
		}
		chained := make([]bool, len(r.rdv))
		for i := r.rdvFree; i != 0; i = r.rdv[i-1].next {
			switch {
			case int(i) > len(r.rdv):
				return fmt.Errorf("rank %d: rendezvous free chain links to slot %d of %d", r.world, i-1, len(r.rdv))
			case r.rdv[i-1].req != nil:
				return fmt.Errorf("rank %d: occupied rendezvous slot %d is on the free chain", r.world, i-1)
			case chained[i-1]:
				return fmt.Errorf("rank %d: rendezvous free chain visits slot %d twice", r.world, i-1)
			}
			chained[i-1] = true
		}
		for i, s := range r.rdv {
			switch {
			case s.req == nil && !chained[i]:
				return fmt.Errorf("rank %d: empty rendezvous slot %d is off the free chain", r.world, i)
			case s.req != nil && j.Finished():
				return fmt.Errorf("rank %d: the job finished with rendezvous slot %d pending", r.world, i)
			case s.req != nil:
				if err := live(fmt.Sprintf("rendezvous slot %d", i), s.req); err != nil {
					return err
				}
			}
		}
		for _, pr := range r.peers {
			for _, it := range pr.outbox {
				if freePkt[it.pkt] {
					return fmt.Errorf("rank %d: packet %p is on the free list and in the outbox to %d", r.world, it.pkt, pr.world)
				}
				if it.req != nil {
					if err := live("an outbox item", it.req); err != nil {
						return err
					}
				}
			}
		}
		var held error
		r.ep.EachQueued(func(payload any) {
			if p, ok := payload.(*wirePkt); ok && freePkt[p] {
				held = fmt.Errorf("rank %d: packet %p is on the free list and held by the fabric", r.world, p)
			}
		})
		if held != nil {
			return held
		}
		for i, req := range r.posted[len(r.posted):cap(r.posted)] {
			if req != nil {
				return fmt.Errorf("rank %d: vacated posted slot +%d still holds %p", r.world, i, req)
			}
		}
		for i, m := range r.unexpected[len(r.unexpected):cap(r.unexpected)] {
			if m.data != nil || m.size != 0 || m.comm != 0 {
				return fmt.Errorf("rank %d: vacated unexpected slot +%d still holds %+v", r.world, i, m)
			}
		}
	}
	return nil
}

// quickSeeds runs prop on 30 random seeds, failing with the first error.
func quickSeeds(t *testing.T, prop func(seed int64) error) {
	t.Helper()
	f := func(seed int64) bool {
		if err := prop(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: random point-to-point traffic is delivered intact, exactly once,
// in order per (src,dst), and leaves the free lists disjoint from the queues
// — also when every rank's sends to some destinations sit deferred behind a
// closed checkpoint gate (message and request buffering, CTS and bulk data
// included) until ReleaseDst.
func TestQuickRandomP2P(t *testing.T) {
	for _, gated := range []bool{false, true} {
		t.Run(fmt.Sprintf("gated=%v", gated), func(t *testing.T) {
			quickSeeds(t, func(seed int64) error {
				rng := rand.New(rand.NewSource(seed))
				n := rng.Intn(4) + 2
				k, j := newTestJob(t, n)
				plan := newP2PPlan(rng, n)
				if gated {
					gate := make(map[int]bool)
					for dst := 0; dst < n; dst++ {
						gate[dst] = rng.Intn(2) == 0
					}
					for _, r := range j.ranks {
						r.SetHooks(&spHooks{gate: gate})
					}
					k.At(sim.Time(rng.Intn(400))*sim.Microsecond, func() {
						clear(gate)
						for _, r := range j.ranks {
							for dst := 0; dst < n; dst++ {
								r.ReleaseDst(dst)
							}
						}
					})
				}
				got := make([][]recvd, n)
				var bodyErr error
				j.LaunchAll(func(e *Env) {
					if err := plan.run(e, e.World(), rng, 0, &got[e.Rank()]); err != nil {
						bodyErr = err
					}
				})
				if err := k.Run(); err != nil {
					return err
				}
				if bodyErr != nil {
					return bodyErr
				}
				for dst := 0; dst < n; dst++ {
					if err := plan.delivered(dst, got[dst]); err != nil {
						return err
					}
				}
				return checkRecycling(j)
			})
		})
	}
}

// Property: killing the job at a random instant — ranks blocked in Recv on a
// recycled request, packets in outboxes, on the wire and in work queues —
// leaves every request and packet where the queues point at it and off the
// free lists: release is on the normal return path only, never in a defer.
func TestQuickShutdownMidWait(t *testing.T) {
	quickSeeds(t, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		k, j := newTestJob(t, n)
		plan := newP2PPlan(rng, n)
		plan.expect[rng.Intn(n)]++ // one rank waits for a message nobody sends
		got := make([][]recvd, n)
		j.LaunchAll(func(e *Env) {
			// Connections take three out-of-band hops to come up; the
			// traffic runs from then on.
			_ = plan.run(e, e.World(), rng, 0, &got[e.Rank()])
		})
		if err := k.RunUntil(sim.Time(rng.Intn(1500)) * sim.Microsecond); err != nil {
			return err
		}
		k.Shutdown()
		return checkRecycling(j)
	})
}

// Property: an uncoordinated restart from per-rank snapshots of different
// epochs. Every rank logs its sends, runs phase A, snapshots, runs phase B,
// snapshots again; the restarted job restores each rank from one snapshot or
// the other and replays the logs. A rank restored from the earlier one
// re-executes phase B: what it re-sends to a peer restored from the later one
// is a duplicate (eager: dropped on arrival; rendezvous: granted into a
// discard sink so the sender completes), and what it expects from such a peer
// comes out of that peer's log. Phase B must be delivered exactly as planned,
// the snapshots must survive a restore → capture round trip byte for byte,
// and the free lists must stay disjoint from the queues throughout.
func TestQuickLoggingRestartDuplicates(t *testing.T) {
	dups := 0
	quickSeeds(t, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		phases := [2]p2pPlan{newP2PPlan(rng, n), newP2PPlan(rng, n)} // A, B

		// body runs the phases from `from` on, each receiving into its own
		// slot of got; a barrier and an idle millisecond separate them, so
		// each snapshot is taken with nothing in flight.
		snaps := make([][2][]byte, n)
		var bodyErr error
		body := func(from int, got *[2][]recvd) func(e *Env) {
			return func(e *Env) {
				w := e.World()
				w.AdvanceCollSeq(from) // one barrier per phase already behind us
				for ph := from; ph < len(phases); ph++ {
					if err := phases[ph].run(e, w, rng, ph, &got[ph]); err != nil {
						bodyErr = err
					}
					e.Barrier(w)
					st, err := e.r.CaptureLibState()
					if err != nil {
						bodyErr = err
					}
					snaps[e.Rank()][ph] = st
					e.Compute(sim.Millisecond)
				}
			}
		}
		k, j := newJobWith(t, n, loggedConfig())
		first := make([][2][]recvd, n)
		for i := 0; i < n; i++ {
			j.Launch(i, body(0, &first[i]))
		}
		if err := k.Run(); err != nil {
			return err
		}
		if bodyErr != nil {
			return bodyErr
		}
		for i := 0; i < n; i++ {
			for ph, plan := range phases {
				if err := plan.delivered(i, first[i][ph]); err != nil {
					return fmt.Errorf("first run, phase %d: %w", ph, err)
				}
			}
		}
		if err := checkRecycling(j); err != nil {
			return fmt.Errorf("first run: %w", err)
		}

		k, j = newJobWith(t, n, loggedConfig())
		counter := counted(j)
		epoch := make([]int, n) // which snapshot each rank restarts from
		for i, r := range j.ranks {
			epoch[i] = rng.Intn(2)
			snap := snaps[i][epoch[i]]
			if err := r.RestoreLibState(snap); err != nil {
				return err
			}
			r.commIndex = 1 // as at capture; restore resets it for the body to re-create World()
			again, err := r.CaptureLibState()
			if err != nil {
				return err
			}
			if !bytes.Equal(again, snap) {
				return fmt.Errorf("rank %d: capture → restore → capture is not the identity", i)
			}
			r.commIndex = 0
		}
		j.ReplayLogs()
		second := make([][2][]recvd, n)
		for i := 0; i < n; i++ {
			if epoch[i] == 0 {
				j.Launch(i, body(1, &second[i]))
			} else {
				j.Launch(i, func(e *Env) {}) // already past phase B: sits in finalize
			}
		}
		if err := k.Run(); err != nil {
			return err
		}
		if bodyErr != nil {
			return bodyErr
		}
		for i := 0; i < n; i++ {
			if epoch[i] == 0 {
				if err := phases[1].delivered(i, second[i][1]); err != nil {
					return fmt.Errorf("restarted run: %w", err)
				}
			}
		}
		dups += int(counter("dups_discarded"))
		if err := checkRecycling(j); err != nil {
			return fmt.Errorf("restarted run: %w", err)
		}
		return nil
	})
	if dups == 0 {
		t.Error("no seed produced a duplicate re-send; the dup-drop and discard-sink paths went untested")
	}
}

// drainOutbox hands packets to the fabric one by one; the slot each leaves
// must not keep pointing at a packet (and, for bulk data, a request) that its
// new owner will recycle.
func TestDrainOutboxClearsVacatedSlots(t *testing.T) {
	k, j := newTestJob(t, 2)
	h := &spHooks{gate: map[int]bool{1: true}}
	r := j.Rank(0)
	r.SetHooks(h)
	j.Launch(0, func(e *Env) {
		w := e.World()
		for i := 0; i < 3; i++ {
			e.Send(w, 1, 0, []byte("held"))
		}
		held := r.peer(1).outbox
		if len(held) != 3 {
			t.Errorf("outbox holds %d packets, want 3", len(held))
		}
		h.gate[1] = false
		r.ReleaseDst(1)            // connects on demand; the drain follows at conn-up
		e.Compute(sim.Millisecond) // three out-of-band hops
		if outboxLen(r, 1) != 0 {
			t.Errorf("outbox still holds %d packets after release", outboxLen(r, 1))
		}
		for i, it := range held {
			if it.pkt != nil || it.req != nil {
				t.Errorf("drained outbox slot %d still holds %+v", i, it)
			}
		}
	})
	j.Launch(1, func(e *Env) {
		w := e.World()
		for i := 0; i < 3; i++ {
			e.Recv(w, 0, 0)
		}
	})
	run(t, k)
}
