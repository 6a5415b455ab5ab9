package mpi

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// A CTS or bulk-data packet names one of the receiving rank's rendezvous
// slots by id. An id naming a released slot, a slot of the other direction
// (data answering an RTS), or a slot past the table is protocol corruption:
// the run fails with an error that names the rank and the id, and nothing
// panics. Rank 0 starts a 1 MiB send to rank 1, which takes slot 0, and then
// receives the forged packet. In the first row that send has completed and a
// second one holds slot 0, so only the generation tells the ids apart.
func TestForgedRendezvousIDFailsRun(t *testing.T) {
	cases := []struct {
		name   string
		reused bool // forge once a second send has taken the first one's slot
		kind   pktKind
		what   string                    // how the error names the packet
		id     func(first uint64) uint64 // from the id the first send was given
	}{
		{"CTS naming a released send", true, pktCTS, "CTS", func(first uint64) uint64 { return first }},
		{"data naming a live send", false, pktData, "data", func(first uint64) uint64 { return first }},
		{"CTS naming a slot past the table", false, pktCTS, "CTS", func(first uint64) uint64 { return first + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, j := newTestJob(t, 2)
			defer k.Shutdown()
			r := j.Rank(0)
			var forged uint64
			returned := false
			j.Launch(0, func(e *Env) {
				req := isend(e, e.World(), 1, 0, make([]byte, 1<<20))
				first := uint64(r.rdv[0].gen) << 32
				if tc.reused {
					wait(e, req)
					req = isend(e, e.World(), 1, 0, make([]byte, 1<<20))
				}
				if len(r.rdv) != 1 || r.rdv[0].req != req {
					t.Errorf("the pending send is not alone in slot 0: %+v", r.rdv)
					return
				}
				forged = tc.id(first)
				pkt := j.newPkt(tc.kind)
				pkt.sendID, pkt.recvID = forged, forged
				r.onMessage(1, ctlPktSize, pkt)
				if r.rdv[0].req != req {
					t.Error("the forged packet released the pending send's slot")
				}
				returned = true
			})
			j.Launch(1, func(e *Env) {
				e.Recv(e.World(), 0, 0)
				e.Recv(e.World(), 0, 0)
			})
			err := k.Run()
			want := fmt.Sprintf("rank 0 got %s naming unknown rendezvous id %#x", tc.what, forged)
			if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "panicked") {
				t.Fatalf("Run() = %v, want an error containing %q", err, want)
			}
			if !returned {
				t.Fatal("delivering the forged packet did not return")
			}
		})
	}
}

// Rank is allocated once per rank per simulation, 960 times a micro_sweep
// repetition; a wirePkt is one packet in flight, a Request one operation, an
// inMsg one unexpected-queue slot and a peer one pair of ranks that talk —
// an entry count kept in its sender log took it to 88 B, the 96 B class, and
// cost hpl_sweep, which never logs, 1.5 % of its alloc_mb; the log behind a
// pointer, nil until a logged send, keeps it at 64. A
// field appended at the end of Rank once took it from 384 to 392 B, which the
// allocator rounds up to its 416 B size class, and cost micro_sweep and
// scale_256 0.6 % of their alloc_mb: a new field goes into padding, or pays
// for a class on purpose. The payload's word took wirePkt from 88 to 96 B on
// purpose: both are the allocator's 96 B class. It would have taken Request
// to 136 B and inMsg to 88 — the next class up — which is why Request packs
// its flags together and inMsg carries int32 ranks.
func TestMessageStructSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size, max uintptr
	}{
		{"Rank", unsafe.Sizeof(Rank{}), 384},
		{"wirePkt", unsafe.Sizeof(wirePkt{}), 96},
		{"Request", unsafe.Sizeof(Request{}), 128},
		{"inMsg", unsafe.Sizeof(inMsg{}), 80},
		{"peer", unsafe.Sizeof(peer{}), 64},
	} {
		if tc.size > tc.max {
			t.Errorf("%s is %d B, want at most %d", tc.name, tc.size, tc.max)
		}
	}
}
