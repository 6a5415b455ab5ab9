// Package mpi implements an MPI-like message-passing library on top of the
// simulated InfiniBand fabric: ranks, communicators, blocking and
// nonblocking point-to-point with tag matching and non-overtaking order,
// collectives, and a progress engine with the on-demand/helper-thread
// discipline the checkpoint layer depends on (paper Section 4.4).
//
// The design mirrors MVAPICH2's structure where the paper's group-based
// checkpointing hooks in: sends funnel through a per-destination outbox that
// realizes on-demand connection management, *message buffering* (small
// messages copied into communication buffers but not yet posted) and
// *request buffering* (requests held in an incomplete state) when the
// checkpoint layer gates a destination (paper Section 4.3).
package mpi

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"gbcr/internal/blcr"
	"gbcr/internal/ib"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/slab"
)

// names holds each rank's process name and park reason for every job: a
// simulation wires its ranks anew, and the strings never change. It grows to
// the largest rank seen.
var names struct {
	// shared: mutex guards the table against jobs built on different goroutines
	mu         sync.Mutex
	proc, wait []string
}

// rankNames returns rank i's process name and park reason.
func rankNames(i int) (proc, wait string) {
	names.mu.Lock()
	defer names.mu.Unlock()
	for n := len(names.proc); n <= i; n++ {
		names.proc = append(names.proc, "rank"+strconv.Itoa(n))
		names.wait = append(names.wait, "MPI wait (rank "+strconv.Itoa(n)+")")
	}
	return names.proc[i], names.wait[i]
}

// ANY is the wildcard for Recv source and tag matching (MPI_ANY_SOURCE /
// MPI_ANY_TAG).
const ANY = -1

// Config parameterizes the MPI library.
type Config struct {
	// LogMessages enables sender-based message logging — the alternative
	// to deferral that Section 4.3 of the paper argues against. Every
	// payload is copied into a per-destination sender log at send time (so
	// zero-copy rendezvous is effectively disabled), charging the copy at
	// memCopyBW on the sender's critical path. The log is captured with the
	// library state and replayed on restart (Job.ReplayLogs), which is what
	// lets the uncoordinated protocol recover from per-rank checkpoints
	// taken at different epochs.
	LogMessages bool
}

const (
	// eagerThreshold is the largest payload sent eagerly (copied into a
	// communication buffer and pushed); larger messages use the zero-copy
	// rendezvous protocol. MVAPICH2's default is on the order of 8 KiB.
	eagerThreshold = 8 << 10
	// helperInterval bounds how long protocol processing can starve while
	// the application computes and the helper thread is active (the paper
	// uses 100 ms).
	helperInterval = 100 * sim.Millisecond
)

// memCopyBW is the memory-copy bandwidth a logging copy is charged at, in
// bytes per second.
const memCopyBW = 2 << 30

// DefaultConfig returns the library defaults used throughout the evaluation:
// no message logging.
func DefaultConfig() Config { return Config{} }

// CRHooks is implemented by the checkpoint/restart layer to participate in
// the library's control flow.
type CRHooks interface {
	// AtSafePoint runs checkpoint work in application-process context. The
	// library calls it when a safe point is reached after
	// Rank.RequestSafePoint (at MPI-call boundaries, inside blocking waits,
	// or interrupting Compute — the BLCR-signal analogue).
	AtSafePoint(e *Env)
	// SendAllowed gates posting any packet toward a destination world
	// rank. Returning false defers the packet in the outbox (message or
	// request buffering) until Rank.ReleaseDst.
	SendAllowed(dstWorld int) bool
	// ConnMeta is the opaque value an outgoing connection request presents
	// to the peer's AcceptConn.
	ConnMeta() int64
	// ConnChanged reports that the connection to peer came up or went down.
	ConnChanged(peer int)
	// AcceptConn gates the rank's passive connection acceptance, and OOB
	// takes the coordinator's out-of-band traffic (ib.Handler's Accept, OOB).
	AcceptConn(peer int, meta int64) bool
	OOB(src int, payload any)
}

// RankStats counts per-rank library activity.
type RankStats struct {
	MsgsBuffered   int   // paper: message buffering events
	BytesBuffered  int64 // payload bytes held while buffered
	ReqsBuffered   int   // paper: request buffering events
	BytesLogged    int64 // payload bytes copied into the message log
	CollectivesRun int
}

// Job is one MPI job: a set of ranks on a shared fabric.
type Job struct {
	k      *sim.Kernel
	fabric *ib.Fabric
	cfg    Config
	bus    *obs.Bus
	ranks  []*Rank
	world  []int  // the identity rank list every World communicator shares
	peerAt []peer // the unused rest of the peer records' current chunk; see Rank.peer

	pktFree freeList[wirePkt] // see newPkt, onMessage
	reqFree freeList[Request] // see getReq, putReq
	stage   *libStateV2       // see staging; nil until a rank's library state is restored from a v2 image
}

// SetObs attaches an observability bus (nil detaches). Protocol decisions —
// eager vs rendezvous, message/request buffering, outbox drains, helper
// ticks, matches — emit mpi-layer events on the acting rank's track, and the
// bus's registry accumulates library counters.
func (j *Job) SetObs(b *obs.Bus) { j.bus = b }

// emit records an mpi-layer instant on rank r's track. It takes values, not
// text: the sinks render them (obs.Event.Text).
func (r *Rank) emit(what obs.Kind, peer int, arg, val int64) {
	r.job.bus.Emit(obs.Event{At: r.job.k.Now(), Rank: r.world, Layer: obs.LayerMPI,
		Type: obs.Instant, What: what, Peer: int32(peer), Arg: arg, Val: val})
}

// NewJob creates a job with n ranks, registering endpoint i for rank i on
// the fabric.
func NewJob(k *sim.Kernel, fabric *ib.Fabric, cfg Config, n int) (*Job, error) {
	j := &Job{k: k, fabric: fabric, cfg: cfg, ranks: make([]*Rank, n), world: make([]int, n)}
	fabric.Reserve(n + 1) // the ranks' endpoints and the checkpoint coordinator's
	// One allocation for every rank's record, and one each for the first
	// windows of their peer indexes and posted-receive queues: a rank talks
	// to a handful of peers and rarely has more than two receives posted.
	recs, peers, posted := make([]Rank, n), slab.NewWindows[*peer](n, 4), slab.NewWindows[*Request](n, 2)
	for i := range recs {
		j.world[i] = i
		ep, err := fabric.AddEndpoint(i)
		if err != nil {
			return nil, fmt.Errorf("mpi: registering rank %d: %w", i, err)
		}
		r := &recs[i]
		*r = Rank{job: j, world: i, ep: ep, peers: peers.Next(), posted: posted.Next()}
		_, r.waitReason = rankNames(i)
		ep.SetHandler((*rankEP)(r))
		j.ranks[i] = r
	}
	return j, nil
}

// Fabric returns the interconnect the job's endpoints live on.
func (j *Job) Fabric() *ib.Fabric { return j.fabric }

// Size returns the number of ranks.
func (j *Job) Size() int { return len(j.ranks) }

// Config returns the library configuration.
func (j *Job) Config() Config { return j.cfg }

// Rank returns rank i.
func (j *Job) Rank(i int) *Rank { return j.ranks[i] }

// Launch starts rank i's application body as a simulated process, passing it
// the rank's Env. Launching a rank twice spawns nothing and fails the
// simulation: the kernel's Run returns the error.
func (j *Job) Launch(i int, body func(e *Env)) *Rank {
	r := j.ranks[i]
	if r.proc != nil {
		j.k.Fail(fmt.Errorf("mpi: rank %d launched twice", i))
		return r
	}
	name, _ := rankNames(i)
	r.proc = j.k.Spawn(name, func(p *sim.Proc) {
		r.env = Env{r: r, p: p}
		body(&r.env)
		r.finished = true
		r.finishedAt = p.Now()
		// A finished rank sits in finalize: it keeps making progress so
		// peers can complete transfers and handshakes against it.
		r.inMPI = true
		r.progressNow()
	})
	return r
}

// LaunchAll starts every rank with the same body.
func (j *Job) LaunchAll(body func(e *Env)) {
	for i := range j.ranks {
		j.Launch(i, body)
	}
}

// Finished reports whether all ranks' bodies have returned.
func (j *Job) Finished() bool {
	for _, r := range j.ranks {
		if !r.finished {
			return false
		}
	}
	return true
}

// FinishTime returns the time the last rank finished. It panics if the job
// has not finished.
func (j *Job) FinishTime() sim.Time {
	var t sim.Time
	for _, r := range j.ranks {
		if !r.finished {
			//lint:allow-panic documented precondition: callers must check Finished first
			panic("mpi: FinishTime on unfinished job")
		}
		t = max(t, r.finishedAt)
	}
	return t
}

// Rank is one MPI process: the library state attached to one simulated
// process and one fabric endpoint.
type Rank struct {
	job   *Job
	world int
	proc  *sim.Proc
	ep    *ib.Endpoint

	finished   bool
	finishedAt sim.Time

	// Progress engine state.
	inMPI    bool
	helperOn bool
	// rdvFree heads rdv's chain of empty slots (see rdvPut). It sits here, in
	// the padding before helperTick: appended at the end it made Rank 392 B,
	// which the allocator rounds up to its 416 B size class.
	rdvFree      uint32
	helperTick   sim.Event
	lastProgress sim.Time

	// Matching state.
	rdv        []rdvSlot  // rendezvous sends awaiting CTS and receives awaiting data, by id
	posted     []*Request // posted receive queue (FIFO)
	unexpected []inMsg    // unexpected message queue (FIFO)

	env        Env    // what Launch passes the body
	waitReason string // see rankNames: a blocked rank parks per message

	// peers indexes one record per rank this one has exchanged a message
	// with, in ascending world order, found by binary search (peer, peerIfAny).
	// A rank talks to a handful of the job's ranks: a sorted index costs
	// nothing until the first message, one lookup a message serves every
	// per-peer field, and snapshots and replay walk it in the order they must
	// write. A dense table indexed by world rank would be O(N) a rank, O(N²) a
	// job. The records come from the job's slab (Rank.peer) and never move.
	peers []*peer

	// Checkpoint integration.
	hooks     CRHooks
	pendingSP bool
	spPolled  bool  // pending request must wait for an explicit boundary
	spIndep   bool  // uncoordinated: polls serve locally, no agreement
	spSeq     int64 // safe-point requests received (never serialized)
	spServed  int64 // safe-point requests served (never serialized)
	commIndex int

	// PostHook, if set, observes every in-band packet put on the wire
	// (destination world rank). DeliverHook observes every in-band arrival
	// as it is processed (source world rank). Per-pair FIFO order lets
	// validators pair posts with deliveries — the consistency checker uses
	// them to prove no message crosses the recovery line.
	PostHook    func(dst int)
	DeliverHook func(src int)

	stats RankStats
}

// peer is what a rank keeps about one other rank. A record exists once the
// pair has exchanged a message (or a lookup needed somewhere to write), and a
// field says nothing until it is non-zero: snapshots, Traffic and ReplayLogs
// list a peer under a field only then, so a record that was merely looked up
// leaves no trace in any image.
//
// Sequence numbers are stamped on every in-band message regardless of
// LogMessages (per-pair FIFO makes them strictly increasing, so noteSeq's
// duplicate check never fires in normal execution); the payload log itself is
// kept only in LogMessages mode.
type peer struct {
	world   int
	traffic int64     // messages sent to it (the group-formation heuristic)
	sendSeq int64     // last sequence number sent to it
	recvSeq int64     // highest sequence number incorporated from it
	outbox  []outItem // packets deferred toward it, oldest first
	log     *blcr.Log // sender-based message log of what was sent to it; nil until a logged send
}

// logged appends a message sent to pr to its sender log, as the Log entry of
// an image carries it: its bytes are encoded once, and every capture copies
// them.
func (pr *peer) logged(p payload, comm int64, srcComm, tag int, seq int64) {
	if pr.log == nil {
		pr.log = new(blcr.Log)
	}
	var b [8]byte
	d, zeros := p.imaged(&b)
	pr.log.Entry(d, zeros, int64(pr.world), comm, int64(srcComm), int64(tag), seq)
}

// findPeer returns the index of world's record in r.peers, or, when there is
// none, the index at which it would be inserted.
func (r *Rank) findPeer(world int) (int, bool) {
	lo, hi := 0, len(r.peers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.peers[mid].world < world {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r.peers) && r.peers[lo].world == world
}

// peerIfAny returns world's record, or nil if the pair has none: the lookup
// of a caller that only reads.
func (r *Rank) peerIfAny(world int) *peer {
	if i, ok := r.findPeer(world); ok {
		return r.peers[i]
	}
	return nil
}

// peer returns world's record, inserting a blank one if the pair has none.
func (r *Rank) peer(world int) *peer {
	i, ok := r.findPeer(world)
	if !ok {
		// cold: once per pair of ranks that talk, never per message. The
		// job's records come in chunks of one a rank, never regrown.
		pr := slab.Take(&r.job.peerAt, len(r.job.ranks))
		pr.world = world
		r.peers = slices.Insert(r.peers, i, pr)
	}
	return r.peers[i]
}

// World returns the rank's world number.
func (r *Rank) World() int { return r.world }

// Proc returns the simulated process running the rank's application, or nil
// before Launch.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Endpoint returns the rank's fabric endpoint.
func (r *Rank) Endpoint() *ib.Endpoint { return r.ep }

// Stats returns a copy of the rank's counters.
func (r *Rank) Stats() RankStats { return r.stats }

// Finished reports whether the rank's body has returned.
func (r *Rank) Finished() bool { return r.finished }

// FinishedAt returns when the rank's body returned; zero before it has.
func (r *Rank) FinishedAt() sim.Time { return r.finishedAt }

// SetHooks installs the checkpoint layer's hooks.
func (r *Rank) SetHooks(h CRHooks) { r.hooks = h }

// RequestSafePoint asks the rank to run hooks.AtSafePoint at its next safe
// point, interrupting computation or a blocking wait to get there — the
// simulation analogue of BLCR's checkpoint signal.
func (r *Rank) RequestSafePoint() {
	r.pendingSP = true
	r.spPolled = false
	r.spSeq++
	if r.proc != nil {
		r.proc.Interrupt()
	}
}

// SetIndependentCkpt marks the rank's checkpoint coordination as
// uncoordinated: CollectiveCheckpoint serves only this rank's own pending
// request, with no collective agreement. The C/R layer sets it when the
// resolved protocol is non-blocking.
func (r *Rank) SetIndependentCkpt(v bool) { r.spIndep = v }

// SetHelper enables or disables the helper thread that bounds protocol
// starvation while the application computes (paper Section 4.4: activated
// only in the passive-coordination state).
func (r *Rank) SetHelper(on bool) {
	r.helperOn = on
	if on && r.ep.PendingWork() {
		r.ensureHelperTick()
	}
	if !on {
		r.helperTick.Cancel()
		r.helperTick = sim.Event{}
	}
}

// rankEP is a rank as its endpoint's ib.Handler: installing it is a pointer
// conversion, so wiring a rank binds no method value. The checkpoint layer,
// once attached, gates connections and takes the coordinator's traffic.
type rankEP Rank

func (h *rankEP) Message(src int, size int64, pkt any) { (*Rank)(h).onMessage(src, size, pkt) }
func (h *rankEP) Accept(peer int, meta int64) bool {
	return h.hooks == nil || h.hooks.AcceptConn(peer, meta)
}
func (h *rankEP) OOB(src int, payload any) {
	if h.hooks != nil {
		h.hooks.OOB(src, payload)
	}
}

// Work is the endpoint's packet-arrival notification. Processing follows
// the MPI progress rule: immediate when the application is inside the
// library, helper-bounded when the helper thread is on, otherwise deferred
// to the next library call.
func (h *rankEP) Work() {
	r := (*Rank)(h)
	if r.inMPI {
		r.progressNow()
		return
	}
	if r.helperOn {
		r.ensureHelperTick()
	}
}

// progressNow drains the endpoint's arrival queue.
func (r *Rank) progressNow() {
	r.lastProgress = r.job.k.Now()
	r.ep.Progress()
}

// ensureHelperTick schedules a progress check no later than
// lastProgress+helperInterval.
func (r *Rank) ensureHelperTick() {
	if r.helperTick.Pending() {
		return
	}
	k := r.job.k
	r.helperTick = k.At(max(r.lastProgress+helperInterval, k.Now()), r.helperTickFire)
}

// helperTickFire is the helper thread's periodic progress check. When the
// queue cannot be drained right now (the application holds the library), the
// recheck is a full interval later — never at the current instant, which
// would spin simulated time in place.
func (r *Rank) helperTickFire() {
	r.helperTick = sim.Event{}
	if !r.helperOn {
		return
	}
	r.job.bus.Metrics().Counter(obs.LayerMPI, "helper_ticks").Inc()
	r.emit(obs.KindHelperTick, 0, 0, 0)
	if !r.inMPI {
		r.progressNow()
	}
	if r.ep.PendingWork() {
		r.helperTick = r.job.k.After(helperInterval, r.helperTickFire)
	}
}

// ConnUp drains deferred packets for the newly established connection, then
// reports the change to the checkpoint layer as ConnDown does.
func (h *rankEP) ConnUp(peer int) {
	(*Rank)(h).drainOutbox(peer)
	h.ConnDown(peer)
}

func (h *rankEP) ConnDown(peer int) {
	if h.hooks != nil {
		h.hooks.ConnChanged(peer)
	}
}

// ReleaseDst re-attempts deferred packets toward dst; the checkpoint layer
// calls it when a gated destination becomes legal again (both endpoints past
// the recovery line).
func (r *Rank) ReleaseDst(dst int) { r.drainOutbox(dst) }
