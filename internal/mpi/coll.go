package mpi

import (
	"fmt"
	"math"

	"gbcr/internal/sim"
)

// Op is a reduction operator over float64 elements.
type Op func(a, b float64) float64

// Predefined reduction operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
)

// checkMember reports whether the calling rank is in the communicator, and
// counts the collective if it is. A collective on a communicator the rank is
// not in is an application bug (real MPI aborts): it fails the run, and the
// collective returns at once with nothing received.
func (e *Env) checkMember(c *Comm) bool {
	if c.myRank < 0 {
		e.r.job.k.Fail(fmt.Errorf("mpi: rank %d is not a member of comm %d", e.r.world, c.id))
		return false
	}
	e.r.stats.CollectivesRun++
	return true
}

// Barrier blocks until every member of the communicator has entered it
// (dissemination algorithm, ceil(log2 n) rounds).
func (e *Env) Barrier(c *Comm) {
	if !e.checkMember(c) {
		return
	}
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	if n == 1 {
		return
	}
	for k := 1; k < n; k <<= 1 {
		dst := (me + k) % n
		src := (me - k%n + n) % n
		e.exchange(c, dst, tag, payload{}, src, tag)
	}
}

// Bcast distributes root's data to all members (binomial tree). Every rank
// returns the payload; only root's input is significant.
func (e *Env) Bcast(c *Comm, root int, data []byte) []byte {
	return e.bcast(c, root, content(data)).data
}

// BcastSize is Bcast for a workload that models the broadcast's cost and
// never reads its content: root's n bytes are charged at every hop and none
// are allocated. Every rank returns the length it received; only root's n is
// significant.
func (e *Env) BcastSize(c *Comm, root int, n int64) int64 {
	return e.bcast(c, root, e.sized(n)).size
}

func (e *Env) bcast(c *Comm, root int, p payload) payload {
	if !e.checkMember(c) {
		return payload{}
	}
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	if n == 1 {
		return p
	}
	rel := (me - root + n) % n
	// Receive from parent.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (me - mask + n) % n
			p, _ = e.await(e.irecvInternal(c, src, tag))
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (me + mask) % n
			e.await(e.isendInternal(c, dst, tag, p))
		}
		mask >>= 1
	}
	return p
}

// AllreduceF64 combines vectors element-wise with op and returns the result
// on every rank (reduce to comm rank 0, then broadcast).
func (e *Env) AllreduceF64(c *Comm, in []float64, op Op) []float64 {
	return e.decodeF64(e.allreduce(c, content(F64ToBytes(in)), op).data)
}

// decodeF64 is BytesToF64 for a collective's result: a malformed length fails
// the run and decodes to nil.
func (e *Env) decodeF64(b []byte) []float64 {
	v, err := BytesToF64(b)
	if err != nil {
		e.r.job.k.Fail(err)
	}
	return v
}

// allreduce is reduce onto comm rank 0 and a broadcast of its result. After
// a failed reduce rank 0 broadcasts an empty payload.
func (e *Env) allreduce(c *Comm, p payload, op Op) payload {
	p, _ = e.reduce(c, 0, p, op)
	return e.bcast(c, 0, p)
}

// reduce folds the members' payloads onto root along a binomial tree: each
// rank folds its children's payloads into acc (payload.fold) and sends the
// result to its parent. Only root's result is significant. It reports false,
// with an empty payload, when the caller is not a member or a child's payload
// is not acc's length; either fails the run.
func (e *Env) reduce(c *Comm, root int, acc payload, op Op) (payload, bool) {
	if !e.checkMember(c) {
		return payload{}, false
	}
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	rel := (me - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			e.await(e.isendInternal(c, (rel&^mask+root)%n, tag, acc))
			break
		}
		if srcRel := rel | mask; srcRel < n {
			got, _ := e.await(e.irecvInternal(c, (srcRel+root)%n, tag))
			if got.size != acc.size {
				e.r.job.k.Fail(fmt.Errorf("mpi: rank %d: AllreduceF64 of %d values got %d", e.r.world, acc.size/8, got.size/8))
				return payload{}, false
			}
			acc.fold(got, op)
		}
	}
	return acc, true
}

// Allgather collects each member's payload on every member, indexed by comm
// rank (ring algorithm, n-1 steps).
func (e *Env) Allgather(c *Comm, data []byte) [][]byte {
	return e.allgather(c, content(data))
}

// AllgatherSize is Allgather for a workload that models the exchange's cost
// and never reads its content: each member contributes n bytes that are
// charged at every step of the ring and never allocated.
func (e *Env) AllgatherSize(c *Comm, n int64) {
	e.allgather(c, e.sized(n))
}

func (e *Env) allgather(c *Comm, p payload) [][]byte {
	if !e.checkMember(c) {
		return nil
	}
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	out := make([][]byte, n)
	out[me] = p.data
	right := (me + 1) % n
	left := (me - 1 + n) % n
	// In step s we forward the block that originated at (me - s + n) % n:
	// our own first, then whatever the previous step received.
	for s := 0; s < n-1; s++ {
		p, _ = e.exchange(c, right, tag, p, left, tag)
		out[(me-s-1+n)%n] = p.data
	}
	return out
}

// CollectiveCheckpoint agrees collectively whether a checkpoint request is
// pending on any member and, if so, serves the safe point here on every one
// of them — the SCR-style application-level discipline that puts all ranks'
// snapshots at the same logical boundary. Restartable workloads call it at
// iteration boundaries instead of MaybeCheckpoint; it consumes two
// collective tags (an allreduce) per call.
func (e *Env) CollectiveCheckpoint(c *Comm) {
	if e.r.spIndep {
		// Uncoordinated protocol: snapshots need no common logical
		// boundary (the message log restores consistency on restart), so
		// the poll serves only this rank's own pending request. Skipping
		// the agreement is also what keeps replayed runs sound — a logged
		// allreduce would feed the pre-crash run's request counters into
		// the restarted run's decision and stall ranks on requests that no
		// longer exist. The two tags the allreduce would have used are
		// still consumed so collective numbering is protocol-independent.
		if !e.checkMember(c) {
			return
		}
		c.nextCollTag()
		c.nextCollTag()
		e.MaybeCheckpoint()
		return
	}
	// The members agree on the highest request sequence number any of them
	// has received. Comparing against the local served count (rather than a
	// pending boolean) lets a member that already served that request pass
	// straight through — after a restart from a mixed-epoch recovery line,
	// safe-point service can be misaligned by an iteration, and a boolean
	// decision would make every already-served member stall here for the
	// following cycle's request.
	// The value rides in the payload's word, so the agreement allocates
	// nothing.
	res := e.allreduce(c, payload{size: 8, word: math.Float64bits(float64(e.r.spSeq))}, OpMax)
	if res.size != 8 || int64(res.f64(0)) <= e.r.spServed { // not 8 bytes: the agreement failed the run
		return
	}
	// Another member saw the request; ours may still be in flight on the
	// out-of-band channel. Wait for it before serving.
	for !e.r.pendingSP {
		e.p.Sleep(10 * sim.Microsecond)
	}
	e.MaybeCheckpoint()
}
