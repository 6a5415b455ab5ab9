package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"gbcr/internal/sim"
)

// Property: under random find-or-insert and read-only lookups — negative ids
// included, as the fabric's endpoint ids may be — the peer table agrees with
// a map[int] reference and stays in ascending order; a read-only lookup never
// inserts, and a record keeps its address through every later insertion,
// across the job slab's chunks (three records each here) too.
func TestQuickPeerTableMatchesMap(t *testing.T) {
	quickSeeds(t, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		_, j := newTestJob(t, 3)
		r := j.Rank(0)
		ref := make(map[int]int64) // a key exists once peer() has been called for it
		first := make(map[int]*peer)
		for op := 0; op < 300; op++ {
			id := rng.Intn(33) - 16
			if rng.Intn(2) == 0 {
				n := rng.Int63n(3) // 0: a lookup that writes nothing
				pr := r.peer(id)
				pr.traffic += n
				ref[id] += n
				if first[id] == nil {
					first[id] = pr
				}
			}
			want, known := ref[id]
			switch pr := r.peerIfAny(id); {
			case (pr != nil) != known:
				return fmt.Errorf("peerIfAny(%d) = %v, reference knows it: %v", id, pr, known)
			case known && (pr.world != id || pr.traffic != want):
				return fmt.Errorf("peerIfAny(%d) = %+v, want traffic %d", id, *pr, want)
			}
			for w := -16; w <= 16; w++ {
				if pr := first[w]; pr != nil && r.peerIfAny(w) != pr {
					return fmt.Errorf("after op %d, rank %d's record moved from %p to %p", op, w, pr, r.peerIfAny(w))
				}
			}
			if len(r.peers) != len(ref) {
				return fmt.Errorf("table holds %d records, reference %d", len(r.peers), len(ref))
			}
			for i := 1; i < len(r.peers); i++ {
				if r.peers[i-1].world >= r.peers[i].world {
					return fmt.Errorf("records %d and %d out of order: %d, %d", i-1, i, r.peers[i-1].world, r.peers[i].world)
				}
			}
		}
		// Traffic lists a peer exactly when its count is non-zero.
		want := make(map[int]int64)
		for id := -16; id <= 16; id++ {
			if n := ref[id]; n != 0 {
				want[id] = n
			}
		}
		if got := r.Traffic(); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Traffic() = %v, want %v", got, want)
		}
		return nil
	})
}

// commID hashes the membership's "%d," text with 32-bit FNV-1a by hand. It
// must give the ids hash/fnv and fmt gave: a context id rides in every packet
// and every library-state image, so a drift would move images and goldens.
func TestCommIDMatchesFNV(t *testing.T) {
	want := func(index int, ranks []int) int64 {
		h := fnv.New32a()
		for _, r := range ranks {
			fmt.Fprintf(h, "%d,", r)
		}
		return int64(index)<<32 | int64(h.Sum32())
	}
	quickSeeds(t, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			ranks := make([]int, rng.Intn(40))
			for k := range ranks {
				switch rng.Intn(4) {
				case 0:
					ranks[k] = -rng.Intn(1 << 20) // a '-' is hashed like any digit
				case 1:
					ranks[k] = int(rng.Int63()) - 1<<62
				default:
					ranks[k] = rng.Intn(1024)
				}
			}
			index := rng.Intn(100)
			if got, w := commID(index, ranks), want(index, ranks); got != w {
				return fmt.Errorf("commID(%d, %v) = %#x, want %#x", index, ranks, got, w)
			}
		}
		return nil
	})
	for _, ranks := range [][]int{nil, {0}, {math.MinInt64, math.MaxInt64}} {
		if got, w := commID(1, ranks), want(1, ranks); got != w {
			t.Errorf("commID(1, %v) = %#x, want %#x", ranks, got, w)
		}
	}
}

// captureTouched runs a six-rank job in which rank 0 sends one eager message
// to each of ranks 1, 2 and 3 in the given order, all behind a closed gate,
// and returns rank 0's library state captured when its per-peer records are:
//
//	1, 2: a deferred send (outbox, send sequence, log) and a received message
//	3:    the same, but the gate opened and the outbox drained
//	4:    only ever looked up — noteSeq of an unstamped packet, outboxLen,
//	      ReleaseDst
//	5:    a received message and nothing sent
//
// blank is the state captured again after rank 4 is given a blank record,
// which is what posting a control packet to a peer never sent to does.
func captureTouched(t *testing.T, cfg Config, order []int) (state, blank []byte) {
	t.Helper()
	k, j := newJobWith(t, 6, cfg)
	h := &spHooks{gate: map[int]bool{1: true, 2: true, 3: true}}
	j.Rank(0).SetHooks(h)
	senders := []int{1, 2, 3, 5}
	j.Launch(0, func(e *Env) {
		w, r := e.World(), e.r
		for _, dst := range order {
			e.Send(w, dst, 0, []byte{byte(dst)})
		}
		h.gate[3] = false
		r.ReleaseDst(3)
		r.ReleaseDst(4)
		if r.noteSeq(4, 0) || outboxLen(r, 4) != 0 {
			t.Error("rank 4 was never sent to, yet has a duplicate or a deferred packet")
		}
		e.Compute(10 * sim.Millisecond) // the outbox to 3 drains; the senders' messages arrive
		if outboxLen(r, 1) != 1 || outboxLen(r, 2) != 1 || outboxLen(r, 3) != 0 || len(r.unexpected) != len(senders) {
			t.Errorf("at capture: outbox 1=%d 2=%d 3=%d, %d unexpected; want 1, 1, 0, %d",
				outboxLen(r, 1), outboxLen(r, 2), outboxLen(r, 3), len(r.unexpected), len(senders))
		}
		var err error
		if state, err = r.CaptureLibState(); err != nil {
			t.Error(err)
		}
		r.peer(4)
		if blank, err = r.CaptureLibState(); err != nil {
			t.Error(err)
		}
		h.gate = nil
		r.ReleaseDst(1)
		r.ReleaseDst(2)
		for _, src := range senders {
			e.Recv(w, src, 0)
		}
	})
	for _, id := range senders {
		j.Launch(id, func(e *Env) {
			w := e.World()
			e.Compute(sim.Time(e.Rank()) * sim.Millisecond) // a fixed arrival order at rank 0
			e.Send(w, 0, 0, []byte{byte(e.Rank())})
			if e.Rank() != 5 {
				e.Recv(w, 0, 0)
			}
		})
	}
	j.Launch(4, func(e *Env) {})
	run(t, k)
	return state, blank
}

// Snapshot bytes feed storage timing, so they may depend on whom a rank
// talked to but not on the order it first did, and a record that holds
// nothing must not show: each list names a peer exactly when that peer's
// counter is non-zero or its queue non-empty.
func TestCaptureIndependentOfTouchOrder(t *testing.T) {
	peersOf := func(n int, peer func(i int) int) string {
		out := make([]int, n)
		for i := range out {
			out[i] = peer(i)
		}
		return fmt.Sprint(out)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		// lists decodes an image into its per-peer lists, as printed peer ids.
		lists func(t *testing.T, image []byte) map[string]string
		want  map[string]string
	}{
		{"v1", DefaultConfig(),
			func(t *testing.T, image []byte) map[string]string {
				var st libState
				if err := gob.NewDecoder(bytes.NewReader(image)).Decode(&st); err != nil {
					t.Fatal(err)
				}
				return map[string]string{
					"Outbox": peersOf(len(st.Outbox), func(i int) int { return st.Outbox[i].Dst }),
				}
			},
			map[string]string{"Outbox": "[1 2]"}},
		{"v2", loggedConfig(),
			func(t *testing.T, image []byte) map[string]string {
				var st libStateV2
				image = bytes.TrimPrefix(image, []byte(libStateV2Magic))
				if err := gob.NewDecoder(bytes.NewReader(image)).Decode(&st); err != nil {
					t.Fatal(err)
				}
				return map[string]string{
					"Outbox":  peersOf(len(st.Outbox), func(i int) int { return st.Outbox[i].Dst }),
					"SendSeq": peersOf(len(st.SendSeq), func(i int) int { return st.SendSeq[i].Peer }),
					"RecvSeq": peersOf(len(st.RecvSeq), func(i int) int { return st.RecvSeq[i].Peer }),
					"Log":     peersOf(len(st.Log), func(i int) int { return st.Log[i].Dst }),
				}
			},
			map[string]string{"Outbox": "[1 2]", "SendSeq": "[1 2 3]", "RecvSeq": "[1 2 3 5]", "Log": "[1 2 3]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			up, upBlank := captureTouched(t, tc.cfg, []int{1, 2, 3})
			down, _ := captureTouched(t, tc.cfg, []int{3, 2, 1})
			if len(up) == 0 || !bytes.Equal(up, down) {
				t.Errorf("image differs with first-touch order: %d bytes ascending, %d descending", len(up), len(down))
			}
			if !bytes.Equal(up, upBlank) {
				t.Errorf("a blank record changed the image: %d bytes before, %d after", len(up), len(upBlank))
			}
			if got := tc.lists(t, up); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("image lists peers %v, want %v", got, tc.want)
			}
		})
	}
}

// TestWindowsOutgrownAlone: a rank's peer index and posted-receive queue
// start in windows of the job's slabs, rank 0's just before rank 1's. Rank 1
// fills part of both; then rank 0 outgrows both, talking to five peers with
// three receives posted. Each moves away on its own, so rank 1 keeps its
// records and its receives match what was sent to them.
func TestWindowsOutgrownAlone(t *testing.T) {
	const n = 8
	k, j := newTestJob(t, n)
	msg := func(src, dst int) []byte { return []byte(fmt.Sprintf("%d->%d", src, dst)) }
	got := make(map[[2]int][]byte)
	recvAll := func(e *Env, w *Comm, srcs ...int) {
		reqs := make([]*Request, len(srcs))
		for i, src := range srcs {
			reqs[i] = irecv(e, w, src, 1)
		}
		e.Compute(sim.Millisecond) // until the other rank has posted too
		wait(e, reqs...)
		for i, src := range srcs {
			got[[2]int{src, e.Rank()}] = reqs[i].data
		}
	}
	j.Launch(1, func(e *Env) {
		w := e.World()
		e.Send(w, 2, 1, msg(1, 2))
		recvAll(e, w, 6, 7)
	})
	j.Launch(0, func(e *Env) {
		w := e.World()
		e.Compute(sim.Microsecond) // after rank 1 has filled its windows
		for dst := 2; dst <= 6; dst++ {
			e.Send(w, dst, 1, msg(0, dst))
		}
		recvAll(e, w, 3, 4, 5)
	})
	for i := 2; i < n; i++ {
		j.Launch(i, func(e *Env) {
			w := e.World()
			if i == 2 {
				got[[2]int{1, 2}], _ = e.Recv(w, 1, 1)
			}
			if i <= 6 {
				got[[2]int{0, i}], _ = e.Recv(w, 0, 1)
			}
			switch {
			case i >= 3 && i <= 5:
				e.Send(w, 0, 1, msg(i, 0))
			case i >= 6:
				e.Compute(2 * sim.Millisecond)
				e.Send(w, 1, 1, msg(i, 1))
			}
		})
	}
	run(t, k)
	if len(got) != 11 {
		t.Errorf("%d messages received, want 11", len(got))
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if data, ok := got[[2]int{src, dst}]; ok && !bytes.Equal(data, msg(src, dst)) {
				t.Errorf("%d received %q from %d, want %q", dst, data, src, msg(src, dst))
			}
		}
	}
	for r, want := range []string{"[2 3 4 5 6]", "[2 6 7]"} {
		var worlds []int
		for _, pr := range j.Rank(r).peers {
			worlds = append(worlds, pr.world)
		}
		if fmt.Sprint(worlds) != want {
			t.Errorf("rank %d indexes peers %v, want %s", r, worlds, want)
		}
	}
}
