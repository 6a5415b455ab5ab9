package mpi

import (
	"fmt"
	"sort"

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
	OpMin Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// checkMember panics if the calling rank is not in the communicator.
func (e *Env) checkMember(c *Comm) {
	if c.myRank < 0 {
		//lint:allow-panic a collective on a communicator the rank is not in is an application bug; real MPI aborts
		panic(fmt.Sprintf("mpi: rank %d is not a member of comm %d", e.r.world, c.id))
	}
	e.r.stats.CollectivesRun++
}

// Barrier blocks until every member of the communicator has entered it
// (dissemination algorithm, ceil(log2 n) rounds).
func (e *Env) Barrier(c *Comm) {
	e.checkMember(c)
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
	e.checkMember(c)
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

// ReduceF64 combines equal-length vectors element-wise with op onto root
// (binomial tree). Only root's return value is significant; other ranks
// return nil.
func (e *Env) ReduceF64(c *Comm, root int, in []float64, op Op) []float64 {
	e.checkMember(c)
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	acc := make([]float64, len(in))
	copy(acc, in)
	if n == 1 {
		return acc
	}
	rel := (me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < n {
				src := (srcRel + root) % n
				got, _ := e.await(e.irecvInternal(c, src, tag))
				part := BytesToF64(got.data)
				if len(part) != len(acc) {
					//lint:allow-panic mismatched reduce buffers are an application bug; real MPI aborts
					panic("mpi: ReduceF64 length mismatch across ranks")
				}
				for i := range acc {
					acc[i] = op(acc[i], part[i])
				}
			}
		} else {
			dstRel := rel &^ mask
			dst := (dstRel + root) % n
			e.await(e.isendInternal(c, dst, tag, content(F64ToBytes(acc))))
			break
		}
		mask <<= 1
	}
	if me == root {
		return acc
	}
	return nil
}

// AllreduceF64 combines vectors element-wise with op and returns the result
// on every rank (reduce to comm rank 0, then broadcast).
func (e *Env) AllreduceF64(c *Comm, in []float64, op Op) []float64 {
	red := e.ReduceF64(c, 0, in, op)
	var payload []byte
	if c.myRank == 0 {
		payload = F64ToBytes(red)
	}
	return BytesToF64(e.Bcast(c, 0, payload))
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
	e.checkMember(c)
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

// Gather collects each member's payload on root, indexed by comm rank
// (linear). Non-root ranks return nil.
func (e *Env) Gather(c *Comm, root int, data []byte) [][]byte {
	e.checkMember(c)
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	if me != root {
		e.await(e.isendInternal(c, root, tag, content(data)))
		return nil
	}
	out := make([][]byte, n)
	out[me] = data
	reqs := make([]*Request, 0, n-1)
	for i := 0; i < n; i++ {
		if i != root {
			reqs = append(reqs, e.irecvInternal(c, i, tag))
		}
	}
	for _, rq := range reqs {
		p, st := e.await(rq)
		out[st.Source] = p.data
	}
	return out
}

// Scatter distributes blocks[i] from root to comm rank i (linear) and
// returns the local block. Only root's blocks argument is significant.
func (e *Env) Scatter(c *Comm, root int, blocks [][]byte) []byte {
	e.checkMember(c)
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	if me == root {
		if len(blocks) != n {
			//lint:allow-panic malformed scatter buffers are an application bug; real MPI aborts
			panic("mpi: Scatter needs one block per member")
		}
		reqs := make([]*Request, 0, n-1)
		for i := 0; i < n; i++ {
			if i != root {
				reqs = append(reqs, e.isendInternal(c, i, tag, content(blocks[i])))
			}
		}
		for _, rq := range reqs {
			e.await(rq)
		}
		return blocks[root]
	}
	p, _ := e.await(e.irecvInternal(c, root, tag))
	return p.data
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
		e.checkMember(c)
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
	res := e.AllreduceF64(c, []float64{float64(e.r.spSeq)}, OpMax)
	if int64(res[0]) <= e.r.spServed {
		return
	}
	// Another member saw the request; ours may still be in flight on the
	// out-of-band channel. Wait for it before serving.
	for !e.r.pendingSP {
		e.p.Sleep(10 * sim.Microsecond)
	}
	e.MaybeCheckpoint()
}

// Alltoall exchanges blocks[i] with member i on every member (pairwise
// exchange, n-1 steps) and returns the received blocks indexed by source.
func (e *Env) Alltoall(c *Comm, blocks [][]byte) [][]byte {
	e.checkMember(c)
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	if len(blocks) != n {
		//lint:allow-panic malformed alltoall buffers are an application bug; real MPI aborts
		panic("mpi: Alltoall needs one block per member")
	}
	out := make([][]byte, n)
	out[me] = blocks[me]
	for s := 1; s < n; s++ {
		dst := (me + s) % n
		src := (me - s + n) % n
		p, _ := e.exchange(c, dst, tag, content(blocks[dst]), src, tag)
		out[src] = p.data
	}
	return out
}

// Split partitions a communicator collectively, like MPI_Comm_split: every
// member calls Split with a color and key; members with equal color form a
// new communicator, ordered by (key, parent rank). A negative color returns
// nil for that member (MPI_UNDEFINED). All members must call Split at the
// same point.
func (e *Env) Split(c *Comm, color, key int) *Comm {
	e.checkMember(c)
	// Gather every member's (color, key) via an allgather.
	pairs := e.Allgather(c, I64ToBytes([]int64{int64(color), int64(key)}))
	if color < 0 {
		// Still burn a creation index so later comms stay aligned across
		// members that did get a communicator.
		e.r.commIndex++
		return nil
	}
	type member struct {
		key, parentRank int
	}
	var members []member
	for rank, raw := range pairs {
		v := BytesToI64(raw)
		if int(v[0]) == color {
			members = append(members, member{key: int(v[1]), parentRank: rank})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})
	worldRanks := make([]int, len(members))
	for i, m := range members {
		worldRanks[i] = c.World(m.parentRank)
	}
	return e.NewComm(worldRanks)
}

// ScanF64 computes an inclusive prefix reduction: member i receives
// op(in_0, in_1, ..., in_i) element-wise (linear chain).
func (e *Env) ScanF64(c *Comm, in []float64, op Op) []float64 {
	e.checkMember(c)
	e.enter()
	defer e.exit()
	tag := c.nextCollTag()
	n, me := c.Size(), c.myRank
	acc := make([]float64, len(in))
	copy(acc, in)
	if me > 0 {
		got, _ := e.await(e.irecvInternal(c, me-1, tag))
		prev := BytesToF64(got.data)
		if len(prev) != len(acc) {
			//lint:allow-panic mismatched scan buffers are an application bug; real MPI aborts
			panic("mpi: ScanF64 length mismatch across ranks")
		}
		for i := range acc {
			acc[i] = op(prev[i], acc[i])
		}
	}
	if me < n-1 {
		e.await(e.isendInternal(c, me+1, tag, content(F64ToBytes(acc))))
	}
	return acc
}
