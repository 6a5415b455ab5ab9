package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gbcr/internal/blcr"
)

// RequestSafePointPolled asks for a safe point without interrupting the
// application; the request is served only at an explicit MaybeCheckpoint (or
// CollectiveCheckpoint) boundary, never inside ordinary library calls.
// Functional-restart runs use this mode so that snapshots land only at
// points the application can resume from.
func (r *Rank) RequestSafePointPolled() {
	r.pendingSP = true
	r.spPolled = true
	r.spSeq++
}

// Traffic returns a copy of the per-destination message counts, the
// communication-pattern heuristic used by dynamic group formation.
func (r *Rank) Traffic() map[int]int64 {
	out := make(map[int]int64, len(r.peers))
	for _, pr := range r.peers {
		if pr.traffic != 0 {
			out[pr.world] = pr.traffic
		}
	}
	return out
}

// AdvanceCollSeq fast-forwards the collective sequence counter after a
// restart, so that re-created communicators resume tag allocation where the
// checkpointed execution left off.
func (c *Comm) AdvanceCollSeq(n int) { c.collSeq = n }

// The images' schema: these mirrors of the queue entries give gob its type
// descriptors and RestoreLibState its decode targets, and writeLibState
// writes their fields by number. Their shape is fixed: a new field would put
// its name in every image's descriptors.
type savedMsg struct {
	Comm     int64
	SrcComm  int
	SrcWorld int
	Tag      int
	Data     []byte
}

type savedOut struct {
	Dst     int
	Comm    int64
	SrcComm int
	Tag     int
	Data    []byte
}

type libState struct {
	Unexpected []savedMsg
	Outbox     []savedOut
	CommIndex  int
}

// libStateV2Magic prefixes the extended capture format used in LogMessages
// mode. Without logging, CaptureLibState emits the v1 gob unchanged, so
// snapshot bytes (and thus storage timing) of non-logging runs are identical
// to the pre-logging library.
const libStateV2Magic = "gbcr/libstate/v2\n"

// entry writes one queue entry of an image as a struct: ints as its fields
// 0, 1, …, then p as imaged gives it. An image's length is part of the
// timing model (Snapshot.Size adds len(LibState) to the storage write), so a
// data-less message costs the bytes of the content it stands for, and
// RestoreLibState brings it back as that content.
func entry(w *blcr.Wire, p payload, ints ...int64) {
	var b [8]byte
	d, zeros := p.imaged(&b)
	w.Entry(d, zeros, ints...)
}

// imaged returns p's bytes as an image holds them: its content, or for a
// data-less payload the word's 8 bytes, put in b, and zeros to its length.
func (p payload) imaged(b *[8]byte) ([]byte, int64) {
	if p.data != nil {
		return p.data, 0
	}
	binary.LittleEndian.PutUint64(b[:], p.word)
	n := min(p.size, 8)
	return b[:n], p.size - n
}

// logPayload is the payload a sender-log entry stands for, over the log's
// memory: its bytes as content, or for a zero run — a data-less message
// logged since the last restore — that message.
func logPayload(b []byte, zeros int64) payload {
	if zeros == 0 {
		return content(b)
	}
	return payload{size: int64(len(b)) + zeros, word: binary.LittleEndian.Uint64(b)}
}

// kept returns restored bytes d as the rank keeps them: nil when empty, as a
// fresh decode gives them; d itself when arena is nil; else a copy from it.
func kept(arena *[]byte, d []byte) []byte {
	switch {
	case len(d) == 0:
		return nil
	case arena == nil:
		return d
	}
	b := (*arena)[:len(d):len(d)]
	*arena = (*arena)[copy(b, d):]
	return b
}

// seqEntry serializes one peer's sequence counter.
type seqEntry struct {
	Peer int
	Seq  int64
}

// savedOutV2 extends savedOut with the packet's sequence number so a restored
// deferred send stays deduplicatable.
type savedOutV2 struct {
	Dst     int
	Comm    int64
	SrcComm int
	Tag     int
	Seq     int64
	Data    []byte
}

// savedLog is one flattened sender-log record (Dst added for serialization).
type savedLog struct {
	Dst     int
	Comm    int64
	SrcComm int
	Tag     int
	Seq     int64
	Data    []byte
}

type libStateV2 struct {
	Unexpected []savedMsg
	Outbox     []savedOutV2
	CommIndex  int
	SendSeq    []seqEntry
	RecvSeq    []seqEntry
	Log        []savedLog
}

// The two image formats' codecs: each sends its gob types once per process.
var (
	libStateCodec   blcr.Codec[libState]
	libStateV2Codec blcr.Codec[libStateV2]
)

// staging returns the gob mirror every v2 restore of the job's ranks decodes
// into, made at first use: timing-only jobs have none. Gob writes no
// capacity, so it keeps its slices and entries' buffers from one restore to
// the next.
func (j *Job) staging() *libStateV2 {
	if j.stage == nil {
		j.stage = new(libStateV2)
	}
	return j.stage
}

// reset readies the mirror for a decode. Gob decodes a slice within its
// capacity in place and leaves an omitted field — every zero one — as it
// was, so every element up to capacity is zeroed but for Data's buffer.
func (st *libStateV2) reset() {
	u, o, l := st.Unexpected[:cap(st.Unexpected)], st.Outbox[:cap(st.Outbox)], st.Log[:cap(st.Log)]
	for i := range u {
		u[i] = savedMsg{Data: u[i].Data[:0]}
	}
	for i := range o {
		o[i] = savedOutV2{Data: o[i].Data[:0]}
	}
	for i := range l {
		l[i] = savedLog{Data: l[i].Data[:0]}
	}
	clear(st.SendSeq[:cap(st.SendSeq)])
	clear(st.RecvSeq[:cap(st.RecvSeq)])
	*st = libStateV2{Unexpected: u[:0], Outbox: o[:0], SendSeq: st.SendSeq[:0], RecvSeq: st.RecvSeq[:0], Log: l[:0]}
}

// CaptureLibState serializes the rank's library state for a snapshot: the
// unexpected-message queue and the deferred-send outbox, and in LogMessages
// mode (the v2 format) the per-peer sequence counters and the sender-based
// message log, all in ascending peer order, a peer listed under a field only
// where that field is non-zero. It must be called at a quiesced boundary: no
// posted receives, no pending rendezvous transfers, and only eager traffic in
// the queues — the discipline functional-restart workloads follow
// (timing-only runs never call it). The image is what gob writes for the
// format's mirror struct, counted and then filled by writeLibState.
func (r *Rank) CaptureLibState() ([]byte, error) {
	if len(r.posted) > 0 {
		return nil, fmt.Errorf("mpi: rank %d has %d posted receives at capture", r.world, len(r.posted))
	}
	for _, s := range r.rdv {
		if s.req != nil {
			return nil, fmt.Errorf("mpi: rank %d has pending rendezvous at capture", r.world)
		}
	}
	for _, m := range r.unexpected {
		if !m.eager {
			return nil, fmt.Errorf("mpi: rank %d has an unexpected rendezvous at capture", r.world)
		}
	}
	var n [4]int // Outbox, SendSeq, RecvSeq and Log entries
	for _, pr := range r.peers {
		for _, it := range pr.outbox {
			if it.pkt.kind != pktEager {
				return nil, fmt.Errorf("mpi: rank %d has a deferred non-eager packet at capture", r.world)
			}
		}
		n[0], n[1], n[2], n[3] = n[0]+len(pr.outbox), n[1]+b2i(pr.sendSeq != 0), n[2]+b2i(pr.recvSeq != 0), n[3]+pr.log.Len()
	}
	logging := r.job.cfg.LogMessages
	var body blcr.Wire
	r.writeLibState(&body, logging, n)
	var w blcr.Wire
	if logging {
		w = libStateV2Codec.Writer(libStateV2Magic, &body)
	} else {
		w = libStateCodec.Writer("", &body) // gob names the types in its stream: v1 bytes need the v1 types
	}
	r.writeLibState(&w, logging, n)
	return w.Image()
}

// writeLibState writes the body of the library state's image to w: the
// libStateV2 struct when logging, else the libState one, n the lengths of
// its lists. Peers in ascending order make the bytes, and the replay order
// of restored sends, depend on whom the rank talked to and not on when it
// first did.
func (r *Rank) writeLibState(w *blcr.Wire, logging bool, n [4]int) {
	st := w.Struct()
	if st.Slice(0, len(r.unexpected)) { // Unexpected []savedMsg
		for _, m := range r.unexpected {
			entry(w, m.payload, m.comm, int64(m.srcComm), int64(m.srcWorld), int64(m.tag))
		}
	}
	if st.Slice(1, n[0]) { // Outbox []savedOutV2, or []savedOut: no Seq
		for _, pr := range r.peers {
			for _, it := range pr.outbox {
				p := it.pkt
				ints := [...]int64{int64(pr.world), p.comm, int64(p.srcComm), int64(p.tag), p.seq}
				entry(w, p.payload, ints[:4+b2i(logging)]...)
			}
		}
	}
	st.Int(2, int64(r.commIndex))
	if logging {
		for fi := 1; fi <= 2; fi++ { // SendSeq, then RecvSeq []seqEntry
			if st.Slice(2+fi, n[fi]) {
				for _, pr := range r.peers {
					if seq := [...]int64{0, pr.sendSeq, pr.recvSeq}[fi]; seq != 0 {
						entry(w, payload{}, int64(pr.world), seq)
					}
				}
			}
		}
		if st.Slice(5, n[3]) { // Log []savedLog, held in image form
			for _, pr := range r.peers {
				w.Log(pr.log)
			}
		}
	}
	st.End()
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RestoreLibState reconstructs the state CaptureLibState recorded on a fresh
// rank (before its body is launched). Deferred sends are re-posted; they
// re-establish connections on demand as the restarted job runs, with their
// original sequence numbers, so a copy that also arrives via log replay is
// discarded by the receiver's duplicate check. A v1 image's fields are copied
// into the v2 struct, leaving what v1 lacks zero: no counters, no log, and
// unstamped sends. A v2 image decodes into the job's staging, its queues'
// bytes then copied into one arena the rank's payloads share, and its log's
// into the sender logs' chunks.
func (r *Rank) RestoreLibState(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var st *libStateV2
	var arena *[]byte // nil when st's bytes are the rank's own: a v1 image's
	var err error
	if body, ok := bytes.CutPrefix(data, []byte(libStateV2Magic)); ok {
		st = r.job.staging()
		st.reset()
		err = libStateV2Codec.Decode(body, st)
		n := 0 // the queues' bytes: the log's are copied into its chunks
		for _, m := range st.Unexpected {
			n += len(m.Data)
		}
		for _, o := range st.Outbox {
			n += len(o.Data)
		}
		a := make([]byte, n)
		arena = &a
	} else {
		var v1 libState
		err = libStateCodec.Decode(data, &v1)
		st = &libStateV2{Unexpected: v1.Unexpected, Outbox: make([]savedOutV2, len(v1.Outbox)), CommIndex: v1.CommIndex}
		for i, o := range v1.Outbox {
			st.Outbox[i] = savedOutV2{Dst: o.Dst, Comm: o.Comm, SrcComm: o.SrcComm, Tag: o.Tag, Data: o.Data}
		}
	}
	err = peerErr(r, err, "Unexpected", st.Unexpected, "SrcWorld", func(m savedMsg) int { return m.SrcWorld })
	err = peerErr(r, err, "Outbox", st.Outbox, "Dst", func(o savedOutV2) int { return o.Dst })
	err = peerErr(r, err, "SendSeq", st.SendSeq, "Peer", func(se seqEntry) int { return se.Peer })
	err = peerErr(r, err, "RecvSeq", st.RecvSeq, "Peer", func(se seqEntry) int { return se.Peer })
	err = peerErr(r, err, "Log", st.Log, "Dst", func(le savedLog) int { return le.Dst })
	if err != nil {
		return fmt.Errorf("mpi: rank %d: library state: %w", r.world, err)
	}
	r.commIndex = 0 // the restarted body re-creates its communicators
	for _, m := range st.Unexpected {
		r.unexpected = append(r.unexpected, inMsg{
			comm: m.Comm, srcComm: int32(m.SrcComm), srcWorld: int32(m.SrcWorld),
			tag: m.Tag, eager: true, payload: content(kept(arena, m.Data)),
		})
	}
	for _, se := range st.SendSeq {
		r.peer(se.Peer).sendSeq = se.Seq
	}
	for _, se := range st.RecvSeq {
		r.peer(se.Peer).recvSeq = se.Seq
	}
	for _, le := range st.Log {
		r.peer(le.Dst).logged(content(le.Data), le.Comm, le.SrcComm, le.Tag, le.Seq)
	}
	for _, o := range st.Outbox {
		pkt := r.job.newPkt(pktEager)
		pkt.comm, pkt.srcComm, pkt.tag, pkt.seq, pkt.payload = o.Comm, o.SrcComm, o.Tag, o.Seq, content(kept(arena, o.Data))
		r.post(r.peer(o.Dst), outItem{kind: outEager, size: eagerHdrSize + pkt.size, pkt: pkt})
	}
	return nil
}

// peerErr returns err, or if that is nil the error of the first of an
// image's entries whose field names a rank that is not a peer of r: one
// outside the job, or r itself.
func peerErr[E any](r *Rank, err error, list string, entries []E, field string, world func(E) int) error {
	for i := 0; i < len(entries) && err == nil; i++ {
		if w, n := world(entries[i]), len(r.job.ranks); w == r.world || uint(w) >= uint(n) {
			err = fmt.Errorf("%s[%d].%s names rank %d, not a peer of rank %d in the %d-rank job", list, i, field, w, r.world, n)
		}
	}
	return err
}

// ReplayLogs completes an uncoordinated restart: after every rank's library
// state has been restored (possibly from snapshots of different epochs), the
// logged messages a receiver's restored state had not yet incorporated are
// injected into its unexpected queue as eager deliveries, in per-pair
// sequence order. Restored senders re-execute and re-send everything after
// their own snapshot point, so the log covers exactly the gap: messages sent
// before the sender's snapshot that the receiver (restored further back) had
// not seen. It returns the number of messages injected.
func (j *Job) ReplayLogs() int {
	injected := 0
	var f [5]int64 // a Log entry's Dst, Comm, SrcComm, Tag and Seq
	for src, s := range j.ranks {
		for _, to := range s.peers {
			if to.log == nil {
				continue
			}
			d := j.ranks[to.world]
			from := d.peer(src)
			rd := to.log.Reader()
			for b, zeros, ok := rd.Next(f[:]); ok; b, zeros, ok = rd.Next(f[:]) {
				if f[4] <= from.recvSeq {
					continue
				}
				from.recvSeq = f[4]
				d.unexpected = append(d.unexpected, inMsg{
					comm: f[1], srcComm: int32(f[2]), srcWorld: int32(src), tag: int(f[3]), eager: true,
					payload: logPayload(b, zeros).clone(),
				})
				injected++
			}
		}
	}
	return injected
}
