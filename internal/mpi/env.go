package mpi

import (
	"fmt"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// Status describes a completed receive.
type Status struct {
	Source int // comm rank of the sender
	Tag    int
	Size   int64
}

// Request is a nonblocking operation handle.
type Request struct {
	r *Rank
	// The flags share one word: spread between the fields they took 24 B,
	// and the payload's word would have taken Request past 128 B.
	isSend   bool
	complete bool
	// discard marks a sink for a duplicate rendezvous re-send after a
	// logging restart: the granted transfer's data is dropped on arrival.
	discard   bool
	comm      *Comm
	peerComm  int // comm rank of peer (or ANY for receives)
	peerWorld int // world rank of peer (send only)
	tag       int
	payload   // what a send carries; what a completed receive got
	status    Status
	// txDone is completeTx as a func value, bound the first time this request
	// is a rendezvous send and kept across recycling.
	txDone func()
}

// completeTx fires at local transmit completion of a rendezvous send's data.
func (req *Request) completeTx() { req.r.completeReq(req) }

// getReq returns a blank request. The library's blocking calls take theirs
// from here and hand them back with putReq.
func (r *Rank) getReq() *Request {
	req := r.job.reqFree.get()
	req.r = r
	return req
}

// putReq recycles a completed request that no queue refers to and whose
// results the caller has copied out. Call it on the normal return path only,
// never in a defer: a process killed mid-wait must leave its requests where
// posted or the rendezvous table still point at them.
func (r *Rank) putReq(req *Request) {
	tx := req.txDone
	r.job.reqFree.put(req)
	req.txDone = tx
}

// matches reports whether an incoming message satisfies this posted receive.
func (req *Request) matches(msg *inMsg) bool {
	if req.isSend || req.comm.id != msg.comm {
		return false
	}
	if req.peerComm != ANY && req.peerComm != int(msg.srcComm) {
		return false
	}
	if req.tag != ANY && req.tag != msg.tag {
		return false
	}
	return true
}

// Env is the per-rank application environment: the MPI API surface bound to
// one rank and its simulated process.
type Env struct {
	r *Rank
	p *sim.Proc
}

// Rank returns the world rank.
func (e *Env) Rank() int { return e.r.world }

// Size returns the world size.
func (e *Env) Size() int { return len(e.r.job.ranks) }

// Proc returns the underlying simulated process.
func (e *Env) Proc() *sim.Proc { return e.p }

// World returns a communicator over all ranks. Each call at the same
// creation index yields the same context id on every rank.
func (e *Env) World() *Comm { return e.NewComm(e.r.job.world) }

// NewComm creates a communicator over the given world ranks. All member
// ranks must call NewComm with identical membership at the same per-rank
// creation index (the usual collective-creation discipline). The
// communicator keeps worldRanks: the caller must not modify it afterwards.
func (e *Env) NewComm(worldRanks []int) *Comm {
	e.r.commIndex++
	c := &Comm{id: commID(e.r.commIndex, worldRanks), ranks: worldRanks, myRank: -1}
	for i, w := range worldRanks {
		if w == e.r.world {
			c.myRank = i
		}
	}
	return c
}

// enter marks the application as inside the library: pending (signal-mode)
// safe points run and queued protocol work progresses. Polled requests wait
// for an explicit MaybeCheckpoint boundary.
func (e *Env) enter() {
	e.r.inMPI = true
	e.r.progressNow() // drain arrivals before any checkpoint work
	if e.r.pendingSP && !e.r.spPolled {
		e.runSafePoint()
	}
}

// exit leaves the library after a final progress pass.
func (e *Env) exit() {
	e.r.progressNow()
	e.r.inMPI = false
}

// runSafePoint hands control to the checkpoint layer in application context.
func (e *Env) runSafePoint() {
	e.r.pendingSP = false
	e.r.spServed = e.r.spSeq
	if e.r.hooks != nil {
		e.r.hooks.AtSafePoint(e)
	}
}

// MaybeCheckpoint is an explicit safe point: if the checkpoint layer has
// requested one, it runs here. Workloads that need well-defined state at
// snapshot time (for functional restart) call this at iteration boundaries.
func (e *Env) MaybeCheckpoint() {
	if e.r.pendingSP {
		e.r.inMPI = true
		e.r.progressNow() // drain arrivals before the safe point
		e.runSafePoint()
		e.r.progressNow()
		e.r.inMPI = false
	}
	// Consume any interrupt that raced with the flag check.
	e.p.InterruptPending(true)
}

// Compute models application computation for duration d. It is a progress
// point at entry and exit, and — like computation under BLCR — it can be
// interrupted by a checkpoint signal, run the checkpoint, and resume the
// remaining work. The computation itself runs outside the library.
func (e *Env) Compute(d sim.Time) {
	e.enter()
	e.r.inMPI = false
	for rem := d; rem > 0; {
		left, interrupted := e.p.SleepI(rem)
		rem = left
		if interrupted {
			e.enter()
			e.r.inMPI = false
		}
	}
	e.r.inMPI = true
	e.exit()
}

// appTag reports whether an application may send with tag. An invalid tag is
// an application bug (real MPI aborts): it fails the run, and the caller
// returns as if the send had completed, like a self-send.
func (e *Env) appTag(tag int) bool {
	if tag >= collTagBase || (tag < 0 && tag != ANY) {
		e.r.job.k.Fail(fmt.Errorf("mpi: rank %d: invalid application tag %d", e.r.world, tag))
		return false
	}
	return true
}

// sized is the payload of a size-only send of n bytes: the length the model
// charges for, with no bytes behind it. A negative n fails the run.
func (e *Env) sized(n int64) payload {
	if n < 0 {
		e.r.job.k.Fail(fmt.Errorf("mpi: rank %d: negative message size %d", e.r.world, n))
		n = 0
	}
	return payload{size: n}
}

// isendInternal posts a send without the library entry/exit bookkeeping;
// collectives use it while already inside the library.
func (e *Env) isendInternal(c *Comm, dst, tag int, p payload) *Request {
	r := e.r
	world := c.World(dst)
	req := r.getReq()
	req.isSend, req.comm, req.peerComm, req.peerWorld, req.tag = true, c, dst, world, tag
	// A destination outside the communicator, or self-send (unsupported by
	// this model), is an application bug (real MPI aborts): fail the run and
	// hand back a finished request so the caller's wait returns.
	if world < 0 {
		r.job.k.Fail(fmt.Errorf("mpi: rank %d: send to comm rank %d out of range [0,%d)", r.world, dst, c.Size()))
		req.complete = true
		return req
	}
	if world == r.world {
		r.job.k.Fail(fmt.Errorf("mpi: rank %d sending to itself", r.world))
		req.complete = true
		return req
	}
	pr := r.peer(world)
	pr.traffic++
	pr.sendSeq++
	seq := pr.sendSeq
	if r.job.cfg.LogMessages {
		// Sender-based logging: copy the payload into the log before it
		// may leave, paying the copy on the critical path (this is why the
		// paper prefers buffering: "the content of messages must always be
		// fully logged", and zero-copy cannot be used). The entry survives
		// in the sender's snapshot and is replayed to receivers restored
		// from an earlier epoch.
		r.stats.BytesLogged += p.size
		pr.logged(p, c.id, c.myRank, tag, seq)
		e.p.Sleep(sim.Time(float64(p.size) / memCopyBW * float64(sim.Second)))
	}
	if p.size <= eagerThreshold {
		// Eager: copy into a communication buffer; the request completes
		// immediately (buffered-send semantics). If the destination is
		// gated this is the paper's *message buffering*.
		req.complete = true
		r.job.bus.Metrics().Counter(obs.LayerMPI, "eager_sent").Inc()
		pkt := r.job.newPkt(pktEager)
		pkt.comm, pkt.srcComm, pkt.tag, pkt.seq, pkt.payload = c.id, c.myRank, tag, seq, p.clone()
		r.post(pr, outItem{kind: outEager, size: eagerHdrSize + p.size, pkt: pkt})
		return req
	}
	// Rendezvous: zero-copy; the request holds the user buffer and stays
	// incomplete until local transmit completion. If gated, this is the
	// paper's *request buffering*.
	r.job.bus.Metrics().Counter(obs.LayerMPI, "rendezvous_sent").Inc()
	req.payload = p
	rts := r.job.newPkt(pktRTS)
	rts.comm, rts.srcComm, rts.tag, rts.seq, rts.sendID, rts.size = c.id, c.myRank, tag, seq, r.rdvPut(req), p.size
	r.post(pr, outItem{kind: outCtl, size: ctlPktSize, pkt: rts})
	return req
}

func (e *Env) irecvInternal(c *Comm, src, tag int) *Request {
	r := e.r
	req := r.getReq()
	req.comm, req.peerComm, req.tag = c, src, tag
	if src != ANY && c.World(src) < 0 {
		// As for a send: fail the run rather than wait for a rank that
		// cannot send.
		r.job.k.Fail(fmt.Errorf("mpi: rank %d: receive from comm rank %d out of range [0,%d)", r.world, src, c.Size()))
		req.complete = true
		return req
	}
	if msg, ok := r.matchUnexpected(req); ok {
		if msg.eager {
			r.deliver(req, &msg)
		} else {
			r.grantRendezvous(req, &msg)
		}
		return req
	}
	r.posted = append(r.posted, req)
	return req
}

// waitInternal blocks until the request completes. Checkpoint safe points
// may run while waiting.
func (e *Env) waitInternal(req *Request) {
	for !req.complete {
		if e.p.Park(e.r.waitReason) {
			e.runSafePoint()
		}
	}
}

// await blocks until one of the library's own requests completes, then
// recycles it and returns what it held.
func (e *Env) await(req *Request) (payload, Status) {
	e.waitInternal(req)
	p, st := req.payload, req.status
	e.r.putReq(req)
	return p, st
}

// Send is a blocking send: for eager messages it returns once the payload is
// buffered; for rendezvous messages it returns at local completion.
func (e *Env) Send(c *Comm, dst, tag int, data []byte) {
	if !e.appTag(tag) {
		return
	}
	e.enter()
	defer e.exit()
	e.await(e.isendInternal(c, dst, tag, content(data)))
}

// Recv is a blocking receive returning the payload and its envelope.
func (e *Env) Recv(c *Comm, src, tag int) ([]byte, Status) {
	e.enter()
	defer e.exit()
	p, st := e.await(e.irecvInternal(c, src, tag))
	return p.data, st
}

// SendrecvSize exchanges messages with possibly different peers, avoiding
// the deadlock of paired blocking calls, for a workload that models the
// exchange's cost and never reads its content: n bytes are charged on the
// wire, in the eager/rendezvous choice and in the sender log, and none are
// allocated.
func (e *Env) SendrecvSize(c *Comm, dst, sendTag int, n int64, src, recvTag int) Status {
	_, st := e.sendrecv(c, dst, sendTag, e.sized(n), src, recvTag)
	return st
}

// SendrecvWord is SendrecvSize for an 8-byte scalar: w is charged and captured
// as its 8 little-endian bytes, and rides the message without a buffer, so
// the exchange allocates nothing. It returns the word received. A received
// message that is not 8 bytes long fails the run, and the word is 0.
func (e *Env) SendrecvWord(c *Comm, dst, sendTag int, w uint64, src, recvTag int) (uint64, Status) {
	p, st := e.sendrecv(c, dst, sendTag, payload{size: 8, word: w}, src, recvTag)
	if p.size != 8 {
		e.r.job.k.Fail(fmt.Errorf("mpi: rank %d: SendrecvWord received %d bytes, want 8", e.r.world, p.size))
		return 0, st
	}
	return p.u64(0), st
}

// sendrecv returns what the completed receive got.
func (e *Env) sendrecv(c *Comm, dst, sendTag int, p payload, src, recvTag int) (payload, Status) {
	e.enter()
	defer e.exit()
	return e.exchange(c, dst, sendTag, p, src, recvTag)
}

// exchange is sendrecv without the library entry/exit bookkeeping; the
// collectives' pairwise steps use it while already inside the library.
func (e *Env) exchange(c *Comm, dst, sendTag int, p payload, src, recvTag int) (payload, Status) {
	rreq := e.irecvInternal(c, src, recvTag)
	e.await(e.isendInternal(c, dst, sendTag, p))
	return e.await(rreq)
}
