package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gbcr/internal/ib"
	"gbcr/internal/obs"
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
// when there is some. data is nil (a data-less message, whose receiver gets
// nil data) or has len(data) == size.
//
// The bytes of a data-less payload are word's 8 little-endian bytes followed
// by zeros: a size-only message is word == 0, and 8-byte scalars — the
// library's own agreements (CollectiveCheckpoint) and an application's
// SendrecvWord — carry their value in word, so they allocate nothing anywhere
// on their path.
type payload struct {
	size int64
	data []byte
	word uint64
}

// content is the payload of a send whose bytes the receiver will read.
func content(data []byte) payload { return payload{size: int64(len(data)), data: data} }

// clone returns a payload that shares no memory with p: the communication
// buffer of an eager send, a sender-log entry, a replayed delivery. The word
// is copied by value.
func (p payload) clone() payload {
	if p.data != nil {
		buf := make([]byte, len(p.data))
		copy(buf, p.data)
		p.data = buf
	}
	return p
}

// u64 returns 8-byte element i of p read little-endian, from data when there
// is some — a message restored from a snapshot, replayed from a log or sent
// by a []byte caller — and by the rule above otherwise.
func (p payload) u64(i int) uint64 {
	if p.data != nil {
		return binary.LittleEndian.Uint64(p.data[8*i:])
	}
	if i == 0 {
		return p.word
	}
	return 0
}

// f64 returns element i of p read as a little-endian float64 vector.
func (p payload) f64(i int) float64 { return math.Float64frombits(p.u64(i)) }

// fold combines got into p element-wise with op, both read as float64
// vectors of p's length: in place in p's bytes, or in its word when it has
// none. It is the per-hop step of Env.reduce.
func (p *payload) fold(got payload, op Op) {
	if p.data == nil {
		p.word = math.Float64bits(op(p.f64(0), got.f64(0)))
		return
	}
	for i := 0; 8*i < len(p.data); i++ {
		binary.LittleEndian.PutUint64(p.data[8*i:], math.Float64bits(op(p.f64(i), got.f64(i))))
	}
}

// pktKind tags what a wirePkt is.
type pktKind uint8

const (
	pktEager pktKind = iota // a small message, payload and match envelope together
	pktRTS                  // announces a rendezvous send
	pktCTS                  // grants a rendezvous transfer
	pktData                 // the zero-copy bulk transfer (the RDMA write)
)

// wirePkt is the one packet type the fabric carries for this library. It
// travels as a pointer, which fits the fabric's `any` without boxing, and
// comes from the job's free list: the sender fills it, the outbox and then
// the fabric hold it, and the receiver returns it at the end of onMessage
// (DESIGN §4.15).
//
// comm/srcComm/tag are the match envelope (eager, RTS). seq is the
// per-(sender,receiver) sequence number used for duplicate suppression after
// a message-logging restart (eager, RTS); it rides in the header — the wire
// size depends only on the payload length, so stamping it changes no timing —
// and zero means unstamped (state restored from a v1 snapshot). sendID names
// the sender's request (RTS, CTS), recvID the receiver's (CTS, data). The
// payload is the message (eager), the announced length with no data (RTS),
// or the bulk bytes (data; the receiver takes the length from the RTS).
type wirePkt struct {
	kind    pktKind
	comm    int64
	srcComm int // sender's comm rank
	tag     int
	seq     int64
	sendID  uint64
	recvID  uint64
	payload
}

// freeList recycles *T values: put blanks one nothing refers to any more, and
// get prefers such a one to a new one, so get always returns a zero T.
type freeList[T any] []*T

func (f *freeList[T]) get() *T {
	n := len(*f)
	if n == 0 {
		// refill on a cold miss; the steady state recycles
		return new(T)
	}
	v := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return v
}

func (f *freeList[T]) put(v *T) {
	var zero T
	*v = zero
	// amortised: the list grows to the most values ever out at once
	*f = append(*f, v)
}

// newPkt takes a blank packet of the given kind from the job's free list.
func (j *Job) newPkt(kind pktKind) *wirePkt {
	p := j.pktFree.get()
	p.kind = kind
	return p
}

// inMsg is an arrived-but-unmatched message envelope. It is built on the
// stack at arrival and copied into the unexpected queue only if no posted
// receive matches. The two ranks are int32 so that the payload's word leaves
// it at 80 B.
type inMsg struct {
	comm     int64
	srcComm  int32
	srcWorld int32
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
	pkt  *wirePkt
	// req is the send a data packet completes: zero-copy, so the sender's
	// buffer is reusable at local transmit completion.
	req *Request
}

// post sends a packet toward the peer pr records, deferring it in the outbox
// when the checkpoint layer gates the destination or no connection is
// available. Per-destination FIFO order is preserved across deferrals: a
// packet queues behind already-deferred ones.
func (r *Rank) post(pr *peer, it outItem) {
	if len(pr.outbox) == 0 && r.trySend(pr.world, it) {
		return
	}
	r.deferItem(pr, it)
}

// trySend attempts to put the packet on the wire now. It reports success.
func (r *Rank) trySend(dst int, it outItem) bool {
	if r.hooks != nil && !r.hooks.SendAllowed(dst) {
		return false
	}
	err := r.ep.Send(dst, it.size, it.pkt)
	switch err {
	case nil:
		if it.req != nil {
			r.job.k.At(r.ep.EgressFree(), it.req.txDone)
		}
		if r.PostHook != nil {
			r.PostHook(dst)
		}
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
		r.job.k.Fail(fmt.Errorf("mpi: rank %d sending to %d: unexpected fabric error: %w", r.world, dst, err))
		return false
	}
}

// connMeta is the opaque value presented to the peer's AcceptConn hook: the
// checkpoint layer's, or 0 without one.
func (r *Rank) connMeta() int64 {
	if r.hooks == nil {
		return 0
	}
	return r.hooks.ConnMeta()
}

func (r *Rank) deferItem(pr *peer, it outItem) {
	pr.outbox = append(pr.outbox, it)
	m := r.job.bus.Metrics()
	switch it.kind {
	case outEager:
		n := it.pkt.size
		r.stats.MsgsBuffered++
		r.stats.BytesBuffered += n
		m.Counter(obs.LayerMPI, "msgs_buffered").Inc()
		m.Counter(obs.LayerMPI, "bytes_buffered").Add(n)
		r.emit(obs.KindBufferMsg, pr.world, n, 0)
	default:
		r.stats.ReqsBuffered++
		m.Counter(obs.LayerMPI, "reqs_buffered").Inc()
		r.emit(obs.KindBufferReq, pr.world, it.size, 0)
	}
}

// drainOutbox re-attempts deferred packets toward dst in order, stopping at
// the first that still cannot be sent. The outbox keeps its array for the
// next deferral: the live tail slides to the front, and the vacated slots are
// cleared, so no sent packet (the receiver recycles it) or request stays
// reachable from here.
func (r *Rank) drainOutbox(dst int) {
	pr := r.peerIfAny(dst)
	if pr == nil || len(pr.outbox) == 0 {
		return
	}
	r.emit(obs.KindOutboxDrain, dst, int64(len(pr.outbox)), 0)
	sent := 0
	for sent < len(pr.outbox) && r.trySend(dst, pr.outbox[sent]) {
		sent++
	}
	n := copy(pr.outbox, pr.outbox[sent:])
	clear(pr.outbox[n:])
	pr.outbox = pr.outbox[:n]
}

// onMessage dispatches an in-band arrival and then recycles its packet:
// every arrive* copies what it keeps, so nothing refers to the packet once it
// returns. It runs during Progress, i.e. under the library's progress
// discipline. This library puts only wirePkts on its endpoints, so anything
// else came from a foreign sender: it is dropped and fails the run.
func (r *Rank) onMessage(src int, size int64, pkt any) {
	if r.DeliverHook != nil {
		r.DeliverHook(src)
	}
	m, ok := pkt.(*wirePkt)
	if !ok {
		r.job.k.Fail(fmt.Errorf("mpi: rank %d received unknown payload %T from endpoint %d", r.world, pkt, src))
		return
	}
	switch m.kind {
	case pktEager:
		r.arriveEager(src, m)
	case pktRTS:
		r.arriveRTS(src, m)
	case pktCTS:
		r.arriveCTS(m)
	case pktData:
		r.arriveData(m)
	}
	r.job.pktFree.put(m)
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
	pr := r.peer(srcWorld)
	if seq <= pr.recvSeq {
		r.job.bus.Metrics().Counter(obs.LayerMPI, "dups_discarded").Inc()
		r.emit(obs.KindDupDrop, srcWorld, seq, 0)
		return true
	}
	pr.recvSeq = seq
	return false
}

func (r *Rank) arriveEager(srcWorld int, m *wirePkt) {
	if r.noteSeq(srcWorld, m.seq) {
		return
	}
	msg := inMsg{comm: m.comm, srcComm: int32(m.srcComm), srcWorld: int32(srcWorld),
		tag: m.tag, eager: true, payload: m.payload}
	if req := r.matchPosted(&msg); req != nil {
		r.job.bus.Metrics().Counter(obs.LayerMPI, "eager_matched").Inc()
		r.emit(obs.KindMatchEager, int(msg.srcComm), m.size, int64(msg.tag))
		r.deliver(req, &msg)
		return
	}
	r.addUnexpected(msg)
}

func (r *Rank) arriveRTS(srcWorld int, m *wirePkt) {
	if r.noteSeq(srcWorld, m.seq) {
		// The sender still blocks on its re-sent rendezvous: grant the
		// transfer into a discard sink so its request completes, and drop
		// the bulk data on arrival.
		r.sendCTS(srcWorld, m.sendID, &Request{r: r, discard: true})
		return
	}
	msg := inMsg{comm: m.comm, srcComm: int32(m.srcComm), srcWorld: int32(srcWorld),
		tag: m.tag, payload: payload{size: m.size}, sendID: m.sendID}
	if req := r.matchPosted(&msg); req != nil {
		r.grantRendezvous(req, &msg)
		return
	}
	r.addUnexpected(msg)
}

// addUnexpected queues an unmatched arrival and wakes the application. No
// blocked call polls this queue; the wake stays because it is a kernel event
// whose sequence number every golden and bench digest pins.
func (r *Rank) addUnexpected(msg inMsg) {
	r.unexpected = append(r.unexpected, msg)
	if r.proc != nil {
		r.proc.Unpark()
	}
}

// grantRendezvous registers the receive and sends CTS back to the sender.
func (r *Rank) grantRendezvous(req *Request, msg *inMsg) {
	r.job.bus.Metrics().Counter(obs.LayerMPI, "rendezvous_granted").Inc()
	r.emit(obs.KindRdvGrant, int(msg.srcComm), msg.size, int64(msg.tag))
	req.status = Status{Source: int(msg.srcComm), Tag: msg.tag, Size: msg.size}
	r.sendCTS(int(msg.srcWorld), msg.sendID, req)
}

// rdvSlot is one entry of a rank's rendezvous table: the request a peer's CTS
// or bulk data will name, or, while empty, a link in the free chain. An id
// handed to a peer is gen<<32 | index; releasing the slot bumps gen, so an id
// from before can never name what the slot holds next (the sim.Event idiom).
// Links and the chain head (Rank.rdvFree) are index+1, zero ending the chain,
// so a zero Rank has a valid empty table.
type rdvSlot struct {
	req  *Request
	gen  uint32
	next uint32
}

// rdvPut parks req in an empty slot, growing the table only when none is
// free, and returns the slot's id.
func (r *Rank) rdvPut(req *Request) uint64 {
	i := r.rdvFree
	if i == 0 {
		// amortised: the table grows to the most rendezvous ever pending at once
		r.rdv = append(r.rdv, rdvSlot{})
		i = uint32(len(r.rdv))
	}
	s := &r.rdv[i-1]
	r.rdvFree, s.next, s.req = s.next, 0, req
	return uint64(s.gen)<<32 | uint64(i-1)
}

// rdvTake releases the slot id names and returns its request: a send's when
// a CTS names it (send), a receive's when bulk data does. An id that is past
// the table, stale, or names the other direction's slot is protocol
// corruption: it fails the run and rdvTake returns nil.
func (r *Rank) rdvTake(id uint64, send bool) *Request {
	i, gen := uint32(id), uint32(id>>32)
	if int(i) < len(r.rdv) {
		if s := &r.rdv[i]; s.gen == gen && s.req != nil && s.req.isSend == send {
			req := s.req
			s.req, s.gen, s.next = nil, gen+1, r.rdvFree
			r.rdvFree = i + 1
			return req
		}
	}
	what := "data"
	if send {
		what = "CTS"
	}
	r.job.k.Fail(fmt.Errorf("mpi: rank %d got %s naming unknown rendezvous id %#x", r.world, what, id))
	return nil
}

// sendCTS registers req as the sink of the sender's transfer sendID and
// grants it.
func (r *Rank) sendCTS(srcWorld int, sendID uint64, req *Request) {
	cts := r.job.newPkt(pktCTS)
	cts.sendID, cts.recvID = sendID, r.rdvPut(req)
	r.post(r.peer(srcWorld), outItem{kind: outCtl, size: ctlPktSize, pkt: cts})
}

// arriveCTS starts the bulk transfer for a granted rendezvous send.
func (r *Rank) arriveCTS(m *wirePkt) {
	req := r.rdvTake(m.sendID, true)
	if req == nil {
		return
	}
	if req.txDone == nil {
		req.txDone = req.completeTx // bound once; survives recycling
	}
	data := r.job.newPkt(pktData)
	data.recvID = m.recvID
	data.payload = req.payload
	r.post(r.peer(req.peerWorld), outItem{kind: outData, size: dataHdrSize + req.size, pkt: data, req: req})
}

// arriveData completes a rendezvous receive.
func (r *Rank) arriveData(m *wirePkt) {
	req := r.rdvTake(m.recvID, false)
	if req == nil || req.discard {
		return // unknown id (the run has failed), or a duplicate re-send: the payload is dropped
	}
	req.payload = payload{size: req.status.Size, data: m.data, word: m.word}
	r.completeReq(req)
}

// matchPosted finds and removes the first posted receive matching the
// message (MPI matching: FIFO over posting order, with wildcards). Like
// matchUnexpected it leaves no reference behind: slices.Delete shifts in
// place and zeroes the slot it vacates, so the backing array cannot keep a
// recycled request or a delivered payload reachable.
func (r *Rank) matchPosted(msg *inMsg) *Request {
	for i, req := range r.posted {
		if req.matches(msg) {
			r.posted = slices.Delete(r.posted, i, i+1)
			return req
		}
	}
	return nil
}

// matchUnexpected finds and removes the first unexpected message matching a
// newly posted receive (FIFO over arrival order).
func (r *Rank) matchUnexpected(req *Request) (msg inMsg, ok bool) {
	for i := range r.unexpected {
		if req.matches(&r.unexpected[i]) {
			msg = r.unexpected[i]
			r.unexpected = slices.Delete(r.unexpected, i, i+1)
			return msg, true
		}
	}
	return inMsg{}, false
}

// deliver completes a receive with an eager payload.
func (r *Rank) deliver(req *Request, msg *inMsg) {
	req.payload = msg.payload
	req.status = Status{Source: int(msg.srcComm), Tag: msg.tag, Size: msg.size}
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
