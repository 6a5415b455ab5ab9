package mpi

import (
	"fmt"

	"gbcr/internal/ib"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// Wire-level header sizes (bytes), roughly matching MVAPICH2 packet headers.
const (
	eagerHdrSize = 48
	ctlPktSize   = 64
	dataHdrSize  = 32
)

// payload is what a message carries: a length, and the bytes themselves only
// if the sender supplied them. Everything the model charges — wire size, the
// eager/rendezvous choice, the logging copy, the buffered and logged byte
// counters, Status.Size — comes from size; data is allocated and copied only
// when there is some. data is nil (a size-only message, whose receiver gets
// nil data) or has len(data) == size.
type payload struct {
	size int64
	data []byte
}

// content is the payload of a send whose bytes the receiver will read.
func content(data []byte) payload { return payload{size: int64(len(data)), data: data} }

// clone returns a payload that shares no memory with p: the communication
// buffer of an eager send, a sender-log entry, a replayed delivery.
func (p payload) clone() payload {
	if p.data != nil {
		buf := make([]byte, len(p.data))
		copy(buf, p.data)
		p.data = buf
	}
	return p
}

// Wire packet types carried by the fabric.
type (
	// wireEager carries a small message's payload with its match envelope.
	// seq is the per-(sender,receiver) sequence number used for duplicate
	// suppression after a message-logging restart; it rides in the header
	// (the wire size depends only on the payload length, so stamping it
	// changes no timing). Zero means unstamped (state restored from a v1
	// snapshot).
	wireEager struct {
		comm    int64
		srcComm int // sender's comm rank
		tag     int
		seq     int64
		payload
	}
	// wireRTS announces a rendezvous send. seq is as in wireEager.
	wireRTS struct {
		comm    int64
		srcComm int
		tag     int
		size    int64
		seq     int64
		sendID  uint64
	}
	// wireCTS grants a rendezvous transfer.
	wireCTS struct {
		sendID uint64
		recvID uint64
	}
	// wireData is the zero-copy bulk transfer (the RDMA write). Its length
	// is not carried: the receiver has it from the RTS.
	wireData struct {
		recvID uint64
		data   []byte
	}
)

// inMsg is an arrived-but-unmatched message envelope in the unexpected queue.
type inMsg struct {
	comm     int64
	srcComm  int
	srcWorld int
	tag      int
	eager    bool
	payload         // eager: the message; rendezvous: the announced size, no data yet
	sendID   uint64 // rendezvous sender request id
}

// outKind classifies a deferred packet for buffering statistics.
type outKind int

const (
	outEager outKind = iota // message buffering: payload already copied
	outCtl                  // request buffering: RTS/CTS held incomplete
	outData                 // request buffering: bulk data held at sender
)

// outItem is a packet bound for dst, possibly deferred by connection state
// or a checkpoint gate.
type outItem struct {
	kind outKind
	size int64 // bytes on the wire, header included
	pkt  any
	onTx func(txEnd sim.Time) // sender-side completion for zero-copy data
}

// post sends a packet toward world rank dst, deferring it in the outbox when
// the checkpoint layer gates the destination or no connection is available.
// Per-destination FIFO order is preserved across deferrals.
func (r *Rank) post(dst int, it outItem) {
	if len(r.outbox[dst]) > 0 {
		// Keep order behind already-deferred packets.
		r.deferItem(dst, it)
		return
	}
	if !r.trySend(dst, it) {
		r.deferItem(dst, it)
	}
}

// trySend attempts to put the packet on the wire now. It reports success.
func (r *Rank) trySend(dst int, it outItem) bool {
	if r.hooks != nil && !r.hooks.SendAllowed(dst) {
		return false
	}
	err := r.ep.Send(dst, it.size, it.pkt)
	switch err {
	case nil:
		if it.onTx != nil {
			it.onTx(r.ep.EgressFree())
		}
		if r.PostHook != nil {
			r.PostHook(dst)
		}
		r.stats.BytesSent += it.size
		return true
	case ib.ErrNotConnected:
		if r.ep.State(dst) == ib.StateClosed {
			// On-demand connection establishment (MVAPICH2 default). A
			// connect failure here means the destination rank does not exist
			// on the fabric: abort the simulation rather than silently drop
			// the packet.
			if cerr := r.ep.Connect(dst, r.connMeta()); cerr != nil {
				r.job.k.Fail(fmt.Errorf("mpi: rank %d connecting to %d: %w", r.world, dst, cerr))
			}
		}
		return false
	case ib.ErrDraining:
		return false
	default:
		//lint:allow-panic the fabric's Send error set is closed; a new value is a simulator bug
		panic(fmt.Sprintf("mpi: unexpected send error: %v", err))
	}
}

// connMeta is the opaque value presented to the peer's AcceptConn hook; the
// checkpoint layer overrides it with the rank's epoch.
func (r *Rank) connMeta() int64 {
	if m, ok := r.hooks.(interface{ ConnMeta() int64 }); ok && r.hooks != nil {
		return m.ConnMeta()
	}
	return 0
}

func (r *Rank) deferItem(dst int, it outItem) {
	r.outbox[dst] = append(r.outbox[dst], it)
	m := r.job.bus.Metrics()
	switch it.kind {
	case outEager:
		n := it.pkt.(wireEager).size
		r.stats.MsgsBuffered++
		r.stats.BytesBuffered += n
		m.Counter(obs.LayerMPI, "msgs_buffered").Inc()
		m.Counter(obs.LayerMPI, "bytes_buffered").Add(n)
		r.emit("buffer-msg", fmt.Sprintf("dst=%d", dst), n)
	default:
		r.stats.ReqsBuffered++
		m.Counter(obs.LayerMPI, "reqs_buffered").Inc()
		r.emit("buffer-req", fmt.Sprintf("dst=%d", dst), it.size)
	}
}

// drainOutbox re-attempts deferred packets toward dst in order, stopping at
// the first that still cannot be sent.
func (r *Rank) drainOutbox(dst int) {
	q := r.outbox[dst]
	if len(q) > 0 {
		r.emit("outbox-drain", fmt.Sprintf("dst=%d", dst), int64(len(q)))
	}
	for len(q) > 0 {
		if !r.trySend(dst, q[0]) {
			break
		}
		q = q[1:]
	}
	if len(q) == 0 {
		delete(r.outbox, dst)
	} else {
		r.outbox[dst] = q
	}
}

// onMessage dispatches an in-band arrival. It runs during Progress, i.e.
// under the library's progress discipline.
func (r *Rank) onMessage(src int, size int64, pkt any) {
	if r.DeliverHook != nil {
		r.DeliverHook(src)
	}
	switch m := pkt.(type) {
	case wireEager:
		r.arriveEager(src, m)
	case wireRTS:
		r.arriveRTS(src, m)
	case wireCTS:
		r.arriveCTS(m)
	case wireData:
		r.arriveData(m)
	default:
		//lint:allow-panic the wire payload set is closed; an unknown type is a simulator bug
		panic(fmt.Sprintf("mpi: rank %d received unknown payload %T", r.world, pkt))
	}
}

// noteSeq incorporates an arriving message's sequence number and reports
// whether it is a duplicate re-send (a restarted sender re-executing past
// messages the receiver's restored state already includes). Per-pair FIFO
// keeps sequence numbers strictly increasing in normal execution, so the
// duplicate branch fires only after a message-logging restart. seq 0 means
// unstamped (v1-restored outbox state) and is never deduplicated.
func (r *Rank) noteSeq(srcWorld int, seq int64) (dup bool) {
	if seq == 0 {
		return false
	}
	if seq <= r.recvSeqOf[srcWorld] {
		r.stats.DupsDiscarded++
		r.job.bus.Metrics().Counter(obs.LayerMPI, "dups_discarded").Inc()
		r.emit("dup-drop", fmt.Sprintf("src=%d seq=%d", srcWorld, seq), seq)
		return true
	}
	r.recvSeqOf[srcWorld] = seq
	return false
}

func (r *Rank) arriveEager(srcWorld int, m wireEager) {
	if r.noteSeq(srcWorld, m.seq) {
		return
	}
	msg := &inMsg{comm: m.comm, srcComm: m.srcComm, srcWorld: srcWorld,
		tag: m.tag, eager: true, payload: m.payload}
	if req := r.matchPosted(msg); req != nil {
		r.job.bus.Metrics().Counter(obs.LayerMPI, "eager_matched").Inc()
		r.emit("match-eager", fmt.Sprintf("src=%d tag=%d", msg.srcComm, msg.tag), m.size)
		r.deliver(req, msg)
		return
	}
	r.addUnexpected(msg)
}

func (r *Rank) arriveRTS(srcWorld int, m wireRTS) {
	if r.noteSeq(srcWorld, m.seq) {
		// The sender still blocks on its re-sent rendezvous: grant the
		// transfer into a discard sink so its request completes, and drop
		// the bulk data on arrival.
		r.reqSeq++
		id := r.reqSeq
		r.recvReqs[id] = &Request{r: r, discard: true}
		r.post(srcWorld, outItem{
			kind: outCtl,
			size: ctlPktSize,
			pkt:  wireCTS{sendID: m.sendID, recvID: id},
		})
		return
	}
	msg := &inMsg{comm: m.comm, srcComm: m.srcComm, srcWorld: srcWorld,
		tag: m.tag, payload: payload{size: m.size}, sendID: m.sendID}
	if req := r.matchPosted(msg); req != nil {
		r.grantRendezvous(req, msg)
		return
	}
	r.addUnexpected(msg)
}

// addUnexpected queues an unmatched arrival and wakes the application in
// case it is blocked in a Probe.
func (r *Rank) addUnexpected(msg *inMsg) {
	r.unexpected = append(r.unexpected, msg)
	if r.proc != nil {
		r.proc.Unpark()
	}
}

// grantRendezvous registers the receive and sends CTS back to the sender.
func (r *Rank) grantRendezvous(req *Request, msg *inMsg) {
	r.job.bus.Metrics().Counter(obs.LayerMPI, "rendezvous_granted").Inc()
	r.emit("rdv-grant", fmt.Sprintf("src=%d tag=%d", msg.srcComm, msg.tag), msg.size)
	req.status = Status{Source: msg.srcComm, Tag: msg.tag, Size: msg.size}
	r.reqSeq++
	id := r.reqSeq
	req.recvID = id
	r.recvReqs[id] = req
	r.post(msg.srcWorld, outItem{
		kind: outCtl,
		size: ctlPktSize,
		pkt:  wireCTS{sendID: msg.sendID, recvID: id},
	})
}

// arriveCTS starts the bulk transfer for a granted rendezvous send.
func (r *Rank) arriveCTS(m wireCTS) {
	req := r.sendReqs[m.sendID]
	if req == nil {
		//lint:allow-panic a CTS always answers our own RTS; an unknown id is protocol corruption
		panic(fmt.Sprintf("mpi: rank %d got CTS for unknown send %d", r.world, m.sendID))
	}
	delete(r.sendReqs, m.sendID)
	r.post(req.peerWorld, outItem{
		kind: outData,
		size: dataHdrSize + req.size,
		pkt:  wireData{recvID: m.recvID, data: req.data},
		// Zero-copy: the sender's buffer is reusable at local transmit
		// completion.
		onTx: func(txEnd sim.Time) {
			r.job.k.At(txEnd, func() { r.completeReq(req) })
		},
	})
}

// arriveData completes a rendezvous receive.
func (r *Rank) arriveData(m wireData) {
	req := r.recvReqs[m.recvID]
	if req == nil {
		//lint:allow-panic bulk data always answers our own CTS; an unknown id is protocol corruption
		panic(fmt.Sprintf("mpi: rank %d got data for unknown recv %d", r.world, m.recvID))
	}
	delete(r.recvReqs, m.recvID)
	if req.discard {
		return // duplicate rendezvous re-send: the payload is dropped
	}
	req.payload = payload{size: req.status.Size, data: m.data}
	r.completeReq(req)
}

// matchPosted finds and removes the first posted receive matching the
// message (MPI matching: FIFO over posting order, with wildcards).
func (r *Rank) matchPosted(msg *inMsg) *Request {
	for i, req := range r.posted {
		if req.matches(msg) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return req
		}
	}
	return nil
}

// matchUnexpected finds and removes the first unexpected message matching a
// newly posted receive (FIFO over arrival order).
func (r *Rank) matchUnexpected(req *Request) *inMsg {
	for i, msg := range r.unexpected {
		if req.matches(msg) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return msg
		}
	}
	return nil
}

// deliver completes a receive with an eager payload.
func (r *Rank) deliver(req *Request, msg *inMsg) {
	req.payload = msg.payload
	req.status = Status{Source: msg.srcComm, Tag: msg.tag, Size: msg.size}
	r.completeReq(req)
}

// completeReq marks a request complete and wakes the application if it is
// blocked in a wait.
func (r *Rank) completeReq(req *Request) {
	req.complete = true
	if r.proc != nil {
		r.proc.Unpark()
	}
}
