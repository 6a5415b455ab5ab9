// Package ib models an InfiniBand-like interconnect: a non-blocking switch
// fabric with per-NIC egress serialization, a connection-oriented transport
// (queue pairs that must be explicitly established and torn down), and an
// out-of-band management channel used for connection handshakes — the setup
// MVAPICH2 uses and the reason connection management is far more expensive
// than TCP/IP (Section 2.2 of the paper).
//
// Processing discipline: packet *arrival* is hardware (egress serialization
// plus wire latency) and always happens on time, but *processing* of an
// arrived packet — matching, protocol state machines, connection handshakes —
// only happens when the owner calls Endpoint.Progress. The MPI layer calls
// Progress when the application is inside the MPI library, and otherwise on
// its helper-thread tick; this reproduces the asynchronous-progress behaviour
// that Section 4.4 of the paper addresses.
package ib

import (
	"errors"
	"fmt"
	"slices"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/slab"
)

// MB is one mebibyte in bytes.
const MB = 1 << 20

// Errors returned by Endpoint.Send.
var (
	ErrNotConnected = errors.New("ib: no established connection to peer")
	ErrDraining     = errors.New("ib: connection is draining or disconnecting")
)

// Config parameterizes the fabric.
type Config struct {
	// LinkBW is each NIC's link bandwidth in bytes/second.
	LinkBW float64
	// OOBLatency is the one-way latency of the out-of-band management
	// channel used for connection handshakes and job-level coordination.
	OOBLatency sim.Time
}

const (
	// latency is the in-band one-way wire latency on the paper's DDR
	// hardware.
	latency = 4 * sim.Microsecond
	// ctlSize is the wire size of in-band control packets (flush markers).
	ctlSize = 64
)

// handshakeRetries caps how many times one connection-management or flush
// packet is retransmitted before the endpoint declares the peer unreachable
// and fails the simulation.
const handshakeRetries = 8

// handshakeTimeout is the base retransmission timeout for connection
// management and flush packets: 4×OOBLatency (1 ms if OOBLatency is zero).
// Retransmission timers are armed only while a drop filter is installed, so
// fault-free runs schedule no timer events.
func (cfg Config) handshakeTimeout() sim.Time {
	if cfg.OOBLatency > 0 {
		return 4 * cfg.OOBLatency
	}
	return sim.Millisecond
}

// PaperConfig returns fabric parameters matching the evaluation testbed:
// Mellanox DDR HCAs (~1.5 GB/s links) with connection management over an
// out-of-band channel (~150 us per message). The ~4 us wire latency is the
// constant latency.
func PaperConfig() Config {
	return Config{
		LinkBW:     1400 * MB,
		OOBLatency: 150 * sim.Microsecond,
	}
}

// DropFilter decides, per protocol packet, whether the fabric loses it in
// flight. kind is one of "REQ", "REP", "RTU", "DISC_REQ", "DISC_REP",
// "FLUSH", "FLUSH_ACK". Returning true drops the packet: it never arrives,
// and the sender's retransmission timer (armed whenever a filter is
// installed) is what recovers the handshake. Application payloads are never
// offered to the filter — the paper's fault model is lossy connection
// management, not lossy RC channels.
type DropFilter func(src, dst int, kind string) bool

// Fabric is the switch connecting all endpoints.
type Fabric struct {
	k          *sim.Kernel
	cfg        Config
	bus        *obs.Bus
	eps        []*Endpoint // by id+1: ids run from -1, the checkpoint coordinator's
	dropFilter DropFilter

	// Out-of-band packets on the wire, from every endpoint. Each arrives
	// OOBLatency after it was sent, so arrival order is send order across
	// all sources, and the kernel fires equal times in scheduling order:
	// the event that fires always belongs to the head. deliverOOB is bound
	// once in New, so sending needs no closure.
	oob        fifo[oobFlight]
	deliverOOB func()

	connAt []conn // the unused rest of the connection records' current chunk; see open

	// What Reserve set aside for the endpoints to come; see AddEndpoint.
	epAt      []Endpoint
	connWin   slab.Windows[*conn]
	flightWin slab.Windows[flight]
}

// Window sizes of an endpoint's reserved connection index and in-flight
// queue: a rank of the paper's workloads talks to a handful of peers and
// rarely has more than a packet or two on the wire.
const (
	connWindow   = 4
	flightWindow = 2
)

// SetDropFilter installs (or, with nil, removes) the protocol-packet drop
// filter. Installing a filter also arms handshake retransmission timers on
// every subsequent connection-management exchange; without one, no timer
// events are scheduled and traces are identical to an unhardened fabric.
func (f *Fabric) SetDropFilter(fn DropFilter) { f.dropFilter = fn }

// New creates an empty fabric.
func New(k *sim.Kernel, cfg Config) (*Fabric, error) {
	if cfg.LinkBW <= 0 {
		return nil, fmt.Errorf("ib: LinkBW must be positive, got %v", cfg.LinkBW)
	}
	f := &Fabric{k: k, cfg: cfg}
	f.deliverOOB = func() {
		fl := f.oob.pop()
		fl.dst.receive(workItem{src: fl.src, oob: true, payload: fl.payload})
	}
	return f, nil
}

// SetObs attaches an observability bus (nil detaches). Connection-management
// handshakes (REQ/REP/RTU), flush/disconnect transitions, and epoch-deferred
// connection requests emit ib-layer events on the owning endpoint's track,
// and the bus's registry accumulates fabric counters.
func (f *Fabric) SetObs(b *obs.Bus) { f.bus = b }

// emit records an ib-layer instant on the endpoint's track.
func (ep *Endpoint) emit(what obs.Kind, peer int) {
	ep.f.bus.Emit(obs.Event{At: ep.f.k.Now(), Rank: ep.id, Layer: obs.LayerIB,
		Type: obs.Instant, What: what, Arg: int64(peer)})
}

// ConnState describes one side of a connection.
type ConnState int

// Connection states.
const (
	StateClosed        ConnState = iota // no connection
	StateConnecting                     // active side, REQ sent
	StateAccepting                      // passive side, REP sent
	StateConnected                      // established, data may flow
	StateDraining                       // flush protocol in progress
	StateDisconnecting                  // drained, disconnect handshake in progress
)

var stateNames = [...]string{"closed", "connecting", "accepting", "connected", "draining", "disconnecting"}

func (s ConnState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("ConnState(%d)", int(s))
}

// Internal protocol payloads. They ride the same delivery path as
// application payloads but are consumed by the connection state machine.
type (
	cmConnReq struct{ meta int64 }
	cmConnRep struct{}
	cmConnRtu struct{}
	cmDiscReq struct{}
	cmDiscRep struct{}

	ctlFlush    struct{}
	ctlFlushAck struct{}
)

// conn is one endpoint's side of a connection: everything the endpoint keeps
// about one peer it talks to, the remote endpoint included, so a send finds
// its destination in the same lookup that checks the connection's state. A
// closed connection keeps its record, in StateClosed, and a reconnect
// reinitialises it in place.
type conn struct {
	peer      int
	remote    *Endpoint
	state     ConnState
	meta      int64
	sentFlush bool
	retry     sim.Event // pending retransmission timer, zero if disarmed
	retries   int       // retransmissions already sent in this state
}

// workItem is an arrived-but-unprocessed packet.
type workItem struct {
	src     int
	oob     bool
	size    int64
	payload any
}

// flight is an in-band packet on the wire. It sits in its source's queue,
// so the source is not stored: deliver rebuilds the work item.
type flight struct {
	dst     *Endpoint
	size    int64
	payload any
}

// oobFlight is an out-of-band packet on the wire, in the fabric's one queue.
type oobFlight struct {
	src     int
	dst     *Endpoint
	payload any
}

// fifo is a queue that keeps its backing array: pop advances a head index
// and clears the slot it vacates (the payload it held may be recycled by its
// owner), and the array is rewound whenever the queue drains, so a queue
// that empties between bursts never allocates after warm-up.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// live returns the queued elements, oldest first, aliasing the queue.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

// push appends v.
func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// Never fully drained, yet at least half consumed: slide the live
		// tail down rather than growing behind a dead prefix.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	// amortised: the array grows to the deepest backlog seen and is then reused
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Stats counts endpoint activity.
type Stats struct {
	ConnectsInitiated int
	ConnectsAccepted  int
	Disconnects       int
	MessagesSent      int
	BytesSent         int64
	OOBSent           int
	MessagesDelivered int
	Retransmits       int
	PacketsDropped    int
}

// Endpoint is one process's NIC plus connection manager.
type Endpoint struct {
	f  *Fabric
	id int

	// conns holds a record for every peer this endpoint has ever connected
	// with, in ascending peer order, found by binary search (find). An
	// endpoint talks to a handful of peers, and every connection is torn
	// down and rebuilt around a checkpoint: a closed record stays, so the
	// rebuild allocates nothing, and the slice is already in the order
	// EachConn promises. nopen counts the records not in StateClosed.
	conns      []*conn
	nopen      int
	egressFree sim.Time
	work       fifo[workItem]
	deferred   []workItem

	// In-band packets this endpoint has put on the wire. Each has one kernel
	// event pending, and the events fire in queue order: arrival times are
	// monotone per source (serial egress plus a constant latency) and the
	// kernel fires equal times in scheduling order. So the event that fires
	// always belongs to the head, and it needs no closure to say which packet
	// it carries — deliverNext is bound once, at AddEndpoint.
	inflight    fifo[flight]
	deliverNext func()

	stats Stats

	// Funcs is the default handler: set its fields to receive upcalls
	// without installing one (SetHandler).
	Funcs
	h Handler
}

// Handler receives an endpoint's upcalls, all in kernel context. Installing
// one (SetHandler) replaces the endpoint's Funcs.
type Handler interface {
	// Message receives an application payload from an established (or
	// draining) connection, in FIFO order per source.
	Message(src int, size int64, payload any)
	// Work reports a packet arrival with processing work pending. The owner
	// decides when to call Progress.
	Work()
	// ConnUp reports that the connection to peer became established.
	ConnUp(peer int)
	// ConnDown reports that the connection to peer is fully torn down.
	ConnDown(peer int)
	// Accept gates passive connection acceptance. Returning false defers
	// the request; deferred requests are retried on Reexamine. meta is the
	// opaque value the initiator passed to Connect (the checkpoint layer
	// uses it to carry the initiator's epoch).
	Accept(peer int, meta int64) bool
	// OOB receives an application out-of-band payload (checkpoint
	// coordination traffic) at arrival time, never queued for Progress — the
	// model of the checkpoint controller thread, which listens on its own
	// channel and is not subject to the MPI progress rule.
	OOB(src int, payload any)
}

// Funcs holds an endpoint's optional upcall funcs, one per Handler method;
// it is the handler until SetHandler installs another. A nil func accepts
// every connection and drops what it would have received.
type Funcs struct {
	OnMessage  func(src int, size int64, payload any)
	OnWork     func()
	OnConnUp   func(peer int)
	OnConnDown func(peer int)
	AcceptConn func(peer int, meta int64) bool
	OnOOB      func(src int, payload any)
}

// funcs is Funcs as a Handler. Its methods are not Funcs', so they are not
// promoted to Endpoint beside the handler they would bypass.
type funcs Funcs

func (f *funcs) Message(src int, size int64, payload any) {
	if f.OnMessage != nil {
		f.OnMessage(src, size, payload)
	}
}

func (f *funcs) Work() {
	if f.OnWork != nil {
		f.OnWork()
	}
}

func (f *funcs) ConnUp(peer int) {
	if f.OnConnUp != nil {
		f.OnConnUp(peer)
	}
}

func (f *funcs) ConnDown(peer int) {
	if f.OnConnDown != nil {
		f.OnConnDown(peer)
	}
}

func (f *funcs) Accept(peer int, meta int64) bool {
	return f.AcceptConn == nil || f.AcceptConn(peer, meta)
}

func (f *funcs) OOB(src int, payload any) {
	if f.OnOOB != nil {
		f.OnOOB(src, payload)
	}
}

// SetHandler routes the endpoint's upcalls to h instead of its Funcs.
func (ep *Endpoint) SetHandler(h Handler) { ep.h = h }

// Reserve sets aside room for the next n endpoints: their records, the first
// windows of their connection indexes and in-flight queues, and the fabric's
// index of them are one allocation each, instead of each growing per
// endpoint. Endpoints past the reservation are built one by one.
func (f *Fabric) Reserve(n int) {
	f.epAt = make([]Endpoint, n)
	f.connWin = slab.NewWindows[*conn](n, connWindow)
	f.flightWin = slab.NewWindows[flight](n, flightWindow)
	f.eps = slices.Grow(f.eps, n)
}

// endpoint returns the endpoint registered under id, or nil.
func (f *Fabric) endpoint(id int) *Endpoint {
	if i := uint(id + 1); i < uint(len(f.eps)) {
		return f.eps[i]
	}
	return nil
}

// AddEndpoint registers a new endpoint with the given id. Ids need not be
// contiguous, and the checkpoint coordinator's is -1, the lowest allowed.
func (f *Fabric) AddEndpoint(id int) (*Endpoint, error) {
	if id < -1 {
		return nil, fmt.Errorf("ib: endpoint id %d below -1", id)
	}
	if f.endpoint(id) != nil {
		return nil, fmt.Errorf("ib: duplicate endpoint id %d", id)
	}
	for len(f.eps) <= id+1 {
		f.eps = append(f.eps, nil)
	}
	ep := slab.Take(&f.epAt, 1)
	*ep = Endpoint{f: f, id: id, conns: f.connWin.Next(), inflight: fifo[flight]{buf: f.flightWin.Next()}}
	ep.deliverNext = ep.deliver
	ep.h = (*funcs)(&ep.Funcs)
	f.eps[id+1] = ep
	return ep, nil
}

// EgressFree reports when the NIC's egress becomes idle. Immediately after a
// successful Send it is the transmit-completion time of that packet; upper
// layers use it to model local (sender-side) completion of zero-copy
// transfers.
func (ep *Endpoint) EgressFree() sim.Time { return ep.egressFree }

// Stats returns a copy of the endpoint's activity counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// find returns the index of peer's connection in ep.conns, or, when there is
// none, the index at which it would be inserted.
func (ep *Endpoint) find(peer int) (int, bool) {
	lo, hi := 0, len(ep.conns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ep.conns[mid].peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ep.conns) && ep.conns[lo].peer == peer
}

// connTo returns the connection toward peer, or nil if it is closed.
func (ep *Endpoint) connTo(peer int) *conn {
	if i, ok := ep.find(peer); ok && ep.conns[i].state != StateClosed {
		return ep.conns[i]
	}
	return nil
}

// open opens a connection toward peer, whose endpoint is remote, in the
// peer's closed record if it has one.
func (ep *Endpoint) open(peer int, remote *Endpoint, state ConnState, meta int64) *conn {
	i, ok := ep.find(peer)
	if !ok {
		// Records come in chunks, one a slot of the fabric's endpoint index,
		// never regrown: a record's pointer is good for the fabric's life.
		ep.conns = slices.Insert(ep.conns, i, slab.Take(&ep.f.connAt, len(ep.f.eps)))
	}
	c := ep.conns[i]
	*c = conn{peer: peer, remote: remote, state: state, meta: meta}
	ep.nopen++
	return c
}

// State reports the connection state toward peer.
func (ep *Endpoint) State(peer int) ConnState {
	if c := ep.connTo(peer); c != nil {
		return c.state
	}
	return StateClosed
}

// Connected reports whether data can be sent to peer right now.
func (ep *Endpoint) Connected(peer int) bool { return ep.State(peer) == StateConnected }

// NumConns reports how many peers this endpoint has a non-closed connection
// with; EachConn visits them.
func (ep *Endpoint) NumConns() int { return ep.nopen }

// EachConn calls fn with every non-closed connection's peer and state, in
// ascending peer order. fn may change a connection's state (Disconnect) but
// must not open or close one.
func (ep *Endpoint) EachConn(fn func(peer int, state ConnState)) {
	for _, c := range ep.conns {
		if c.state != StateClosed {
			fn(c.peer, c.state)
		}
	}
}

// transmit sends a packet in-band to the endpoint at the far end of a
// connection: the NIC serializes egress at LinkBW, then the packet arrives
// after the wire latency. Per-destination FIFO order is guaranteed (serial
// egress + constant latency).
func (ep *Endpoint) transmit(peer *Endpoint, size int64, payload any) {
	k := ep.f.k
	start := k.Now()
	if ep.egressFree > start {
		start = ep.egressFree
	}
	tx := sim.Time(float64(size) / ep.f.cfg.LinkBW * float64(sim.Second))
	ep.egressFree = start + tx
	arrival := ep.egressFree + latency
	ep.inflight.push(flight{peer, size, payload})
	k.At(arrival, ep.deliverNext)
	ep.stats.MessagesSent++
	ep.stats.BytesSent += size
	// The registry allocates a counter the first time it is named, never after.
	m := ep.f.bus.Metrics()
	m.Counter(obs.LayerIB, "msgs").Inc()
	m.Counter(obs.LayerIB, "bytes").Add(size)
}

// SendOOB sends a payload over the out-of-band management channel. It does
// not require a connection and does not consume link bandwidth.
func (ep *Endpoint) SendOOB(dst int, payload any) error {
	peer := ep.f.endpoint(dst)
	if peer == nil {
		return fmt.Errorf("ib: endpoint %d sending OOB to unknown endpoint %d", ep.id, dst)
	}
	ep.stats.OOBSent++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "oob_msgs").Inc()
	ep.f.oob.push(oobFlight{ep.id, peer, payload})
	ep.f.k.After(ep.f.cfg.OOBLatency, ep.f.deliverOOB)
	return nil
}

// deliver hands this endpoint's in-band packet now due to its destination.
func (ep *Endpoint) deliver() {
	fl := ep.inflight.pop()
	fl.dst.receive(workItem{src: ep.id, size: fl.size, payload: fl.payload})
}

// cmKind names a protocol payload for the drop filter, or "" for
// application traffic (which is never dropped).
func cmKind(payload any) string {
	switch payload.(type) {
	case cmConnReq:
		return "REQ"
	case cmConnRep:
		return "REP"
	case cmConnRtu:
		return "RTU"
	case cmDiscReq:
		return "DISC_REQ"
	case cmDiscRep:
		return "DISC_REP"
	case ctlFlush:
		return "FLUSH"
	case ctlFlushAck:
		return "FLUSH_ACK"
	}
	return ""
}

// dropped consults the fabric drop filter for a protocol payload headed to
// dst, recording the loss if the filter claims it.
func (ep *Endpoint) dropped(dst int, payload any) bool {
	filter := ep.f.dropFilter
	if filter == nil {
		return false
	}
	kind := cmKind(payload)
	if kind == "" || !filter(ep.id, dst, kind) {
		return false
	}
	ep.stats.PacketsDropped++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "cm_drops").Inc()
	ep.f.bus.Emit(obs.Event{At: ep.f.k.Now(), Rank: ep.id, Layer: obs.LayerIB,
		Type: obs.Instant, What: obs.KindCMDrop, Detail: kind, Arg: int64(dst)})
	return true
}

// sendCM sends an internal connection-management payload over the
// out-of-band channel, subject to the drop filter. The peer was validated
// when the connection was created, so a lookup failure here is a fabric
// invariant violation and aborts the simulation.
func (ep *Endpoint) sendCM(dst int, payload any) {
	if ep.dropped(dst, payload) {
		return
	}
	if err := ep.SendOOB(dst, payload); err != nil {
		ep.f.k.Fail(err)
	}
}

// sendCtl transmits an internal in-band control packet (flush protocol) over
// c. A dropped control packet still serializes on the NIC egress — it is lost
// on the wire, not suppressed at the source — so drain timing stays honest.
func (ep *Endpoint) sendCtl(c *conn, payload any) {
	if ep.dropped(c.peer, payload) {
		start := ep.f.k.Now()
		if ep.egressFree > start {
			start = ep.egressFree
		}
		ep.egressFree = start + sim.Time(ctlSize/ep.f.cfg.LinkBW*float64(sim.Second))
		return
	}
	ep.transmit(c.remote, ctlSize, payload)
}

// disarm cancels c's pending retransmission timer, if any.
func (ep *Endpoint) disarm(c *conn) {
	c.retry.Cancel()
	c.retry = sim.Event{}
}

// armRetransmit schedules the handshake retransmission timer for c with
// capped exponential backoff. Timers are armed only while a drop filter is
// installed: fault-free runs schedule no timer events, keeping their traces
// byte-identical to an unhardened fabric.
func (ep *Endpoint) armRetransmit(c *conn) {
	if ep.f.dropFilter == nil {
		return
	}
	ep.disarm(c)
	d := ep.f.cfg.handshakeTimeout()
	d = sim.Backoff(d, c.retries, 16*d)
	peer := c.peer
	c.retry = ep.f.k.After(d, func() { ep.retransmit(peer) })
}

// retransmit fires when a handshake step has not advanced within its
// timeout: it re-sends the packet appropriate to the connection's current
// state and re-arms with doubled backoff, failing the simulation with a
// clear diagnosis once the retry budget is exhausted (a lost CM packet must
// stall progress measurably, never hang it silently).
func (ep *Endpoint) retransmit(peer int) {
	c := ep.connTo(peer)
	if c == nil {
		return
	}
	c.retry = sim.Event{}
	if c.retries >= handshakeRetries {
		ep.f.k.Fail(fmt.Errorf("ib: endpoint %d handshake with %d stuck in state %v after %d retransmits",
			ep.id, peer, c.state, c.retries))
		return
	}
	c.retries++
	ep.stats.Retransmits++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "retransmits").Inc()
	ep.f.bus.Emit(obs.Event{At: ep.f.k.Now(), Rank: ep.id, Layer: obs.LayerIB,
		Type: obs.Instant, What: obs.KindCMRetransmit, Detail: c.state.String(), Arg: int64(peer)})
	switch c.state {
	case StateConnecting:
		ep.sendCM(peer, cmConnReq{meta: c.meta})
	case StateAccepting:
		ep.sendCM(peer, cmConnRep{})
	case StateDraining:
		if !c.sentFlush {
			return // passive side: the initiator's retransmits drive recovery
		}
		ep.sendCtl(c, ctlFlush{})
	case StateDisconnecting:
		ep.sendCM(peer, cmDiscReq{})
	default:
		return
	}
	ep.armRetransmit(c)
}

// Send transmits an application payload of the given wire size to dst over
// an established connection.
func (ep *Endpoint) Send(dst int, size int64, payload any) error {
	c := ep.connTo(dst)
	switch {
	case c == nil || c.state == StateClosed, c.state == StateConnecting, c.state == StateAccepting:
		return ErrNotConnected
	case c.state == StateDraining || c.state == StateDisconnecting:
		return ErrDraining
	}
	ep.transmit(c.remote, size, payload)
	return nil
}

// receive handles an arrived packet. Connection-management packets are
// processed immediately — MVAPICH2 runs connection management on a dedicated
// asynchronous thread — while in-band traffic (data, flush markers) queues
// until the owner calls Progress, following the MPI progress rule.
func (ep *Endpoint) receive(it workItem) {
	switch it.payload.(type) {
	case cmConnReq, cmConnRep, cmConnRtu, cmDiscReq, cmDiscRep:
		// connection management allocates per connection, not per message
		ep.process(it)
		return
	}
	if it.oob {
		ep.h.OOB(it.src, it.payload)
		return
	}
	ep.work.push(it)
	ep.h.Work()
}

// PendingWork reports whether Progress has queued packets to process.
func (ep *Endpoint) PendingWork() bool { return ep.work.len() > 0 }

// Progress processes all queued arrivals: connection-management handshakes,
// flush markers, and application deliveries (via the handler's Message).
func (ep *Endpoint) Progress() {
	for ep.work.len() > 0 {
		// control packets allocate per connection, not per message
		ep.process(ep.work.pop())
	}
}

// EachQueued calls fn with the payload of every packet this endpoint has on
// the wire (either channel), has received and not yet processed, or has
// deferred: everywhere the fabric still holds a payload its owner must not
// recycle. Validators use it.
//
//lint:allow-unused test instrumentation: mpi's recycle validator proves with it that no packet is reused while the fabric holds it
func (ep *Endpoint) EachQueued(fn func(payload any)) {
	for _, fl := range ep.inflight.live() {
		fn(fl.payload)
	}
	for _, fl := range ep.f.oob.live() {
		if fl.src == ep.id {
			fn(fl.payload)
		}
	}
	for _, it := range slices.Concat(ep.work.live(), ep.deferred) {
		fn(it.payload)
	}
}

// Reexamine re-queues deferred connection requests (e.g. after the checkpoint
// epoch advanced) and processes them.
func (ep *Endpoint) Reexamine() {
	if len(ep.deferred) == 0 {
		return
	}
	for _, it := range ep.deferred {
		ep.work.push(it)
	}
	ep.deferred = nil
	ep.Progress()
}

func (ep *Endpoint) process(it workItem) {
	switch pl := it.payload.(type) {
	case cmConnReq:
		ep.handleConnReq(it, pl)
	case cmConnRep:
		ep.handleConnRep(it.src)
	case cmConnRtu:
		ep.handleConnRtu(it.src)
	case cmDiscReq:
		ep.handleDiscReq(it.src)
	case cmDiscRep:
		ep.handleDiscRep(it.src)
	case ctlFlush:
		ep.promoteOnInband(it.src)
		ep.handleFlush(it.src)
	case ctlFlushAck:
		ep.promoteOnInband(it.src)
		ep.handleFlushAck(it.src)
	default:
		ep.promoteOnInband(it.src)
		ep.stats.MessagesDelivered++
		ep.h.Message(it.src, it.size, it.payload)
	}
}

// promoteOnInband completes the passive side of a handshake when in-band
// traffic arrives while still in Accepting: the peer can transmit as soon as
// it processed our REP, and its data may physically outrun the out-of-band
// RTU. The arrival itself proves the connection is established (the real
// hardware analogue: the queue pair is already in RTR after the REP).
func (ep *Endpoint) promoteOnInband(peer int) {
	c := ep.connTo(peer)
	if c == nil || c.state != StateAccepting {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.state = StateConnected
	ep.emit(obs.KindConnUp, peer)
	ep.h.ConnUp(peer)
}

// Connect initiates connection establishment toward peer. meta is an opaque
// value shown to the peer's Accept upcall. Calling Connect on a connection
// that exists in any state is a no-op.
func (ep *Endpoint) Connect(peer int, meta int64) error {
	if peer == ep.id {
		return fmt.Errorf("ib: endpoint %d connecting to itself", ep.id)
	}
	remote := ep.f.endpoint(peer)
	if remote == nil {
		return fmt.Errorf("ib: endpoint %d connecting to unknown endpoint %d", ep.id, peer)
	}
	if ep.connTo(peer) != nil {
		return nil
	}
	c := ep.open(peer, remote, StateConnecting, meta)
	ep.stats.ConnectsInitiated++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "connects").Inc()
	ep.emit(obs.KindCMReq, peer)
	ep.sendCM(peer, cmConnReq{meta: meta})
	ep.armRetransmit(c)
	return nil
}

func (ep *Endpoint) handleConnReq(it workItem, req cmConnReq) {
	peer := it.src
	c := ep.connTo(peer)
	if c != nil {
		switch c.state {
		case StateConnecting:
			// Crossing REQs: the lower id stays active, the higher id
			// abandons its attempt and answers passively.
			if ep.id > peer {
				c.state = StateAccepting
				c.meta = req.meta
				c.retries = 0
				ep.stats.ConnectsAccepted++
				ep.f.bus.Metrics().Counter(obs.LayerIB, "accepts").Inc()
				ep.emit(obs.KindCMRep, peer)
				ep.sendCM(peer, cmConnRep{})
				ep.armRetransmit(c)
			}
			// Lower id: ignore; the peer will abandon its REQ.
			return
		case StateAccepting:
			// Duplicate REQ: our REP was lost and the initiator timed out.
			// Re-answer; our own retransmission timer keeps its schedule.
			ep.emit(obs.KindCMRep, peer)
			ep.sendCM(peer, cmConnRep{})
			return
		default:
			// Duplicate or stale REQ; ignore.
			return
		}
	}
	if !ep.h.Accept(peer, req.meta) {
		ep.deferred = append(ep.deferred, it)
		ep.f.bus.Metrics().Counter(obs.LayerIB, "deferred_connects").Inc()
		ep.emit(obs.KindCMDefer, peer)
		return
	}
	// The REQ came from a registered endpoint: only those can send.
	c = ep.open(peer, ep.f.endpoint(peer), StateAccepting, req.meta)
	ep.stats.ConnectsAccepted++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "accepts").Inc()
	ep.emit(obs.KindCMRep, peer)
	ep.sendCM(peer, cmConnRep{})
	ep.armRetransmit(c)
}

func (ep *Endpoint) handleConnRep(peer int) {
	c := ep.connTo(peer)
	if c == nil {
		return
	}
	if c.state == StateConnected {
		// Duplicate REP: our RTU was lost and the acceptor timed out.
		// Re-confirm so the passive side can leave Accepting.
		ep.sendCM(peer, cmConnRtu{})
		return
	}
	if c.state != StateConnecting {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.state = StateConnected
	ep.emit(obs.KindConnUp, peer)
	ep.sendCM(peer, cmConnRtu{})
	ep.h.ConnUp(peer)
}

func (ep *Endpoint) handleConnRtu(peer int) {
	c := ep.connTo(peer)
	if c == nil || c.state != StateAccepting {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.state = StateConnected
	ep.emit(obs.KindConnUp, peer)
	ep.h.ConnUp(peer)
}

// Disconnect starts the flush-and-teardown protocol toward peer: in-band
// flush markers drain both directions, then an out-of-band disconnect
// handshake destroys the connection. ConnDown fires on both sides when
// complete. Disconnect on a non-established connection is a no-op.
func (ep *Endpoint) Disconnect(peer int) {
	c := ep.connTo(peer)
	if c == nil || c.state != StateConnected {
		return
	}
	c.state = StateDraining
	c.sentFlush = true
	c.retries = 0
	ep.emit(obs.KindFlushStart, peer)
	ep.sendCtl(c, ctlFlush{})
	ep.armRetransmit(c)
}

func (ep *Endpoint) handleFlush(peer int) {
	c := ep.connTo(peer)
	if c == nil {
		return
	}
	switch c.state {
	case StateConnected:
		// Passive side: enter draining, acknowledge. The ack is queued
		// behind any in-flight egress, so its arrival proves this
		// direction is drained.
		c.state = StateDraining
	case StateDraining:
		// Crossing disconnects: both initiated; still acknowledge.
	default:
		return
	}
	ep.sendCtl(c, ctlFlushAck{})
}

func (ep *Endpoint) handleFlushAck(peer int) {
	c := ep.connTo(peer)
	if c == nil || c.state != StateDraining || !c.sentFlush {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.state = StateDisconnecting
	ep.emit(obs.KindDiscReq, peer)
	ep.sendCM(peer, cmDiscReq{})
	ep.armRetransmit(c)
}

func (ep *Endpoint) handleDiscReq(peer int) {
	c := ep.connTo(peer)
	if c == nil {
		// Already closed (crossing disconnects); stay idempotent.
		ep.sendCM(peer, cmDiscRep{})
		return
	}
	switch c.state {
	case StateDraining, StateDisconnecting:
		ep.sendCM(peer, cmDiscRep{})
		ep.closeConn(peer)
	}
}

func (ep *Endpoint) handleDiscRep(peer int) {
	c := ep.connTo(peer)
	if c == nil || c.state != StateDisconnecting {
		return
	}
	ep.closeConn(peer)
}

// closeConn closes the connection toward peer, keeping its record for the
// next connect.
func (ep *Endpoint) closeConn(peer int) {
	if c := ep.connTo(peer); c != nil {
		ep.disarm(c)
		c.state = StateClosed
		ep.nopen--
	}
	ep.stats.Disconnects++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "disconnects").Inc()
	ep.emit(obs.KindConnDown, peer)
	ep.h.ConnDown(peer)
}
