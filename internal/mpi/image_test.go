package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// A restore refuses an image that names, as a peer, a rank outside the job or
// the restoring rank itself: restored cleanly, it failed the run later with
// "connecting to unknown endpoint" or "connecting to itself", and ReplayLogs
// indexed past the job's ranks. The error names the rank, the entry and the
// field, and the rank is left as it was.
func TestRestoreLibStateRejectsForeignRanks(t *testing.T) {
	const self = 2 // restoring rank 2 of a 4-rank job
	for _, world := range []int{-1, 4, 1 << 40, self} {
		want := fmt.Sprintf("names rank %d, not a peer of rank 2 in the 4-rank job", world)
		for _, row := range []struct {
			field string
			st    libStateV2
		}{
			{"Unexpected[0].SrcWorld", libStateV2{Unexpected: []savedMsg{{SrcWorld: world, Tag: 1}}}},
			{"Outbox[1].Dst", libStateV2{Outbox: []savedOutV2{{Dst: 1, Seq: 1}, {Dst: world, Seq: 2}}}},
			{"SendSeq[0].Peer", libStateV2{SendSeq: []seqEntry{{Peer: world, Seq: 3}}}},
			{"RecvSeq[0].Peer", libStateV2{RecvSeq: []seqEntry{{Peer: world, Seq: 3}}}},
			{"Log[0].Dst", libStateV2{Log: []savedLog{{Dst: world, Seq: 1, Data: []byte{1}}}}},
		} {
			_, j := newJobWith(t, 4, loggedConfig())
			r := j.Rank(self)
			err := r.RestoreLibState(libImage(t, row.st))
			if err == nil || err.Error() != "mpi: rank 2: library state: "+row.field+" "+want {
				t.Errorf("%s naming rank %d: RestoreLibState = %v, want an error naming rank 2, the field and %q", row.field, world, err, want)
			}
			if len(r.unexpected) != 0 || len(r.peers) != 0 {
				t.Errorf("%s naming rank %d: the rejected image left %d unexpected messages and %d peer records", row.field, world, len(r.unexpected), len(r.peers))
			}
		}
	}
}

// imageSource draws a library state from fuzz input, one byte or integer at
// a time; exhausted input reads as zeros.
type imageSource []byte

func (s *imageSource) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// int64 is zero, a small number of either sign, one near MaxInt64 or
// MinInt64, or any 64 bits.
func (s *imageSource) int64() int64 {
	switch s.byte() % 5 {
	case 0:
		return 0
	case 1:
		return int64(int8(s.byte()))
	case 2:
		return math.MaxInt64 - int64(s.byte())
	case 3:
		return math.MinInt64 + int64(s.byte())
	}
	var b [8]byte
	for i := range b {
		b[i] = s.byte()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// payload is nil, empty, up to 63 bytes of content, a word, or a data-less
// message of 0 to 200 bytes — past 8, a zero run in a sender log — returned
// with the bytes an image records for it.
func (s *imageSource) payload() (payload, []byte) {
	switch s.byte() % 5 {
	case 0:
		return content(nil), nil
	case 1:
		return content([]byte{}), nil
	case 2:
		d := make([]byte, s.byte()%64)
		for i := range d {
			d[i] = s.byte()
		}
		return content(d), d
	}
	p := payload{size: 8, word: uint64(s.int64())}
	if s.byte()%2 == 0 {
		p.size = int64(s.byte()) % 201
	}
	d := make([]byte, max(p.size, 8))
	binary.LittleEndian.PutUint64(d, p.word)
	return p, d[:p.size]
}

// fill gives rank 0 of a 4-rank job the state s draws — unexpected
// messages, and toward 1–3 peers deferred sends, sequence counters and
// messages logged as isendInternal logs them — and returns the gob mirror of
// that state, built independently of CaptureLibState.
func (s *imageSource) fill(r *Rank) libStateV2 {
	st := libStateV2{CommIndex: int(s.int64())}
	r.commIndex = st.CommIndex
	peers := 1 + int(s.byte()%3)
	for i := s.byte() % 6; i > 0; i-- {
		m := inMsg{comm: s.int64(), srcComm: int32(s.int64()), srcWorld: int32(1 + int(s.byte())%peers), tag: int(s.int64()), eager: true}
		var d []byte
		m.payload, d = s.payload()
		r.unexpected = append(r.unexpected, m)
		st.Unexpected = append(st.Unexpected, savedMsg{Comm: m.comm, SrcComm: int(m.srcComm), SrcWorld: int(m.srcWorld), Tag: m.tag, Data: d})
	}
	for p := 1; p <= peers; p++ {
		pr := r.peer(p)
		for i := s.byte() % 4; i > 0; i-- {
			pkt := &wirePkt{kind: pktEager, comm: s.int64(), srcComm: int(s.int64()), tag: int(s.int64()), seq: s.int64()}
			var d []byte
			pkt.payload, d = s.payload()
			pr.outbox = append(pr.outbox, outItem{kind: outEager, size: eagerHdrSize + pkt.size, pkt: pkt})
			st.Outbox = append(st.Outbox, savedOutV2{Dst: p, Comm: pkt.comm, SrcComm: pkt.srcComm, Tag: pkt.tag, Seq: pkt.seq, Data: d})
		}
		if !r.job.cfg.LogMessages {
			continue
		}
		if pr.sendSeq = s.int64(); pr.sendSeq != 0 {
			st.SendSeq = append(st.SendSeq, seqEntry{Peer: p, Seq: pr.sendSeq})
		}
		if pr.recvSeq = s.int64(); pr.recvSeq != 0 {
			st.RecvSeq = append(st.RecvSeq, seqEntry{Peer: p, Seq: pr.recvSeq})
		}
		for i := s.byte() % 12; i > 0; i-- {
			le := savedLog{Dst: p, Comm: s.int64(), SrcComm: int(s.int64()), Tag: int(s.int64()), Seq: s.int64()}
			var m payload
			m, le.Data = s.payload()
			pr.logged(m, le.Comm, le.SrcComm, le.Tag, le.Seq)
			st.Log = append(st.Log, le)
		}
	}
	return st
}

// CaptureLibState writes gob's bytes without gob: for any library state, in
// either format, its image is what the format's codec writes for the mirror
// struct, and a restore on a fresh rank re-captures to the same bytes. A
// replay after that restore delivers to each receiver, whose counter is 0,
// the logged messages whose seq exceeds every one before them toward it —
// all of them, as a sender stamps them — in order, as the image holds them.
// The seed corpus is in testdata/fuzz/FuzzLibStateImage.
func FuzzLibStateImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, logged := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.LogMessages = logged
			_, j := newJobWith(t, 4, cfg)
			src := imageSource(in)
			st := src.fill(j.Rank(0))
			var want []byte
			var err error
			if logged {
				want, err = libStateV2Codec.Append([]byte(libStateV2Magic), &st)
			} else {
				v1 := libState{Unexpected: st.Unexpected, CommIndex: st.CommIndex}
				for _, o := range st.Outbox {
					v1.Outbox = append(v1.Outbox, savedOut{Dst: o.Dst, Comm: o.Comm, SrcComm: o.SrcComm, Tag: o.Tag, Data: o.Data})
				}
				want, err = libStateCodec.Append(nil, &v1)
			}
			if err != nil {
				t.Fatal(err)
			}
			img, err := j.Rank(0).CaptureLibState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, want) {
				t.Fatalf("logged=%v: CaptureLibState wrote\n% x\nthe codec\n% x", logged, img, want)
			}

			_, fresh := newJobWith(t, 4, cfg)
			r := fresh.Rank(0)
			r.SetHooks(&spHooks{gate: map[int]bool{1: true, 2: true, 3: true}}) // the outbox stays put
			if err := r.RestoreLibState(img); err != nil {
				t.Fatal(err)
			}
			r.commIndex = st.CommIndex // restore leaves it to the restarted body
			again, err := r.CaptureLibState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, img) {
				t.Fatalf("logged=%v: capture → restore → capture wrote\n% x\nafter\n% x", logged, again, img)
			}
			checkReplay(t, fresh, st.Log)
			if again, err = r.CaptureLibState(); err != nil || !bytes.Equal(again, img) {
				t.Fatalf("logged=%v: a capture after the replayed bytes were overwritten wrote\n% x, %v\nbefore\n% x", logged, again, err, img)
			}
		}
	})
}

// checkReplay replays the logs of the 4-rank job j, whose rank 0 has
// restored log and whose other ranks are fresh, checks what each receiver
// got, and then overwrites those bytes: a receiver owns what it got.
func checkReplay(t *testing.T, j *Job, log []savedLog) {
	t.Helper()
	var want [4][]savedLog
	var seq [4]int64
	for _, le := range log {
		if le.Seq > seq[le.Dst] {
			seq[le.Dst] = le.Seq
			want[le.Dst] = append(want[le.Dst], le)
		}
	}
	if n, total := j.ReplayLogs(), len(want[1])+len(want[2])+len(want[3]); n != total {
		t.Fatalf("ReplayLogs injected %d messages, want %d", n, total)
	}
	for d := 1; d < 4; d++ {
		r := j.Rank(d)
		if len(r.unexpected) != len(want[d]) || r.peer(0).recvSeq != seq[d] {
			t.Fatalf("rank %d: replayed %d messages up to seq %d, want %d up to %d", d, len(r.unexpected), r.peer(0).recvSeq, len(want[d]), seq[d])
		}
		for i, m := range r.unexpected {
			le := want[d][i]
			if m.comm != le.Comm || m.srcComm != int32(le.SrcComm) || m.srcWorld != 0 || m.tag != le.Tag || !m.eager ||
				m.size != int64(len(le.Data)) || !bytes.Equal(m.data, le.Data) || (m.data == nil) != (len(le.Data) == 0) {
				t.Fatalf("rank %d: replayed message %d is %+v, want %+v from rank 0", d, i, m, le)
			}
			for b := range m.data {
				m.data[b] ^= 0xff
			}
		}
	}
}
