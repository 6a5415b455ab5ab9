package sim

// eventQueue is the kernel's scheduling structure, specialized to *event so
// the hot path pays no interface boxing or indirect method dispatch.
//
// Events queued for one instant form chains: intrusive FIFO lists linked
// through event.next, in scheduling order. A hand-rolled 4-ary min-heap holds
// one 16-byte chain value per chain, keyed on (head.at, seq), where seq
// numbers chains in the order they were started. Most events join a chain
// that is already in the heap, so scheduling one is a pointer store and
// popping one advances its chain's head without a sift; only a chain's first
// event pushes and its last pops.
//
// open holds, per hashed instant, the tail of the newest chain. A schedule
// whose slot holds a tail at its own instant appends to that chain; anything
// else starts a new chain, which takes the slot. A chain that loses its slot
// is sealed: later events at its instant start a chain with a higher seq,
// which fires after it. Firing order is therefore exactly (at, scheduling
// order), the order a heap of single events keyed on a global sequence
// number gave. Invariant: a slot is nil or the tail of a chain in the heap.
//
// Canceled events are discarded lazily — each is examined exactly once, at
// the head of its chain — except that when more than half the queued events
// are canceled, maybeCompact sweeps every chain in one O(n) pass.
type eventQueue struct {
	heap []chain
	open [openSlots]*event
	seq  uint64 // seq of the newest chain
	n    int    // events in chains, canceled ones included

	free []*event

	nCanceled int // canceled events still sitting in chains
}

// chain is one heap entry: the head of a FIFO of events at one instant.
type chain struct {
	seq  uint64
	head *event
}

// openSlots is the size of the open-tail table; slot hashes into it.
const openSlots = 16

// slot is the open-tail table index of instant at (Fibonacci hashing: the
// top four bits of the product).
func slot(at Time) int { return int(uint64(at) * 0x9E3779B97F4A7C15 >> 60) }

// before orders chains by (instant, seq); no two chains share a seq, so the
// order — and therefore the whole simulation — is deterministic.
func before(a, b chain) bool {
	return a.head.at < b.head.at || (a.head.at == b.head.at && a.seq < b.seq)
}

// schedule appends e to the open chain for its instant, or starts a chain.
func (q *eventQueue) schedule(e *event) {
	e.next = nil
	q.n++
	s := &q.open[slot(e.at)]
	if t := *s; t != nil && t.at == e.at {
		t.next = e
		*s = e
		return
	}
	*s = e
	q.seq++
	// heap growth is amortized doubling; the steady state reuses capacity
	q.heap = append(q.heap, chain{seq: q.seq, head: e})
	q.siftUp(len(q.heap) - 1)
}

// next returns the earliest pending event without removing it, or nil when
// none remain. Canceled events reaching the front are recycled as they are
// found, so each is examined exactly once across all calls.
func (q *eventQueue) next() *event {
	for len(q.heap) > 0 {
		e := q.heap[0].head
		if !e.canceled {
			return e
		}
		q.nCanceled--
		q.pop(e)
		q.recycle(e)
	}
	return nil
}

// pop removes e, which must be the event the immediately preceding next
// call returned (peek-then-commit): it advances the top chain's head, and a
// drained chain leaves the heap and, if it is still open, its slot.
func (q *eventQueue) pop(e *event) {
	q.n--
	if e.next != nil {
		q.heap[0].head = e.next
		return
	}
	if s := &q.open[slot(e.at)]; *s == e {
		*s = nil
	}
	h := q.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = chain{}
	q.heap = h[:n]
	if n > 0 {
		q.siftDown(0)
	}
}

// recycle clears an event's references (so closures and procs can be
// collected) and returns it to the free list for the kernel's allocator.
func (q *eventQueue) recycle(e *event) {
	e.fn = nil
	e.wake = nil
	// free-list growth is amortized; the steady state pops before it pushes
	q.free = append(q.free, e)
}

// 4-ary heap: children of node i are 4i+1..4i+4, parent is (i-1)/4.

// siftUp moves the element at index i up to its heap position, shifting
// ancestors down (one store per level, not a swap).
func (q *eventQueue) siftUp(i int) {
	h := q.heap
	c := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !before(c, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
}

// siftDown moves the element at index i down to its heap position.
func (q *eventQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	c := h[i]
	for {
		f := i<<2 + 1
		if f >= n {
			break
		}
		end := f + 4
		if end > n {
			end = n
		}
		m := f
		for j := f + 1; j < end; j++ {
			if before(h[j], h[m]) {
				m = j
			}
		}
		if !before(h[m], c) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = c
}

// compactMin is the queue size below which lazy discard is always cheaper
// than a sweep.
const compactMin = 64

// maybeCompact sweeps canceled events out of the chains once they outnumber
// the live ones: one pass unlinks them into the free list, moves an open
// slot to its chain's new tail, and drops emptied chains; the surviving
// chains are then re-heapified bottom-up in O(n).
func (q *eventQueue) maybeCompact() {
	if q.n < compactMin || q.nCanceled*2 <= q.n {
		return
	}
	h := q.heap
	live := h[:0]
	for _, c := range h {
		s := &q.open[slot(c.head.at)]
		var head, tail, last *event
		for e := c.head; e != nil; e = e.next {
			last = e
			if !e.canceled {
				if tail == nil {
					head = e
				} else {
					tail.next = e
				}
				tail = e
				continue
			}
			q.nCanceled--
			q.n--
			q.recycle(e)
		}
		if *s == last {
			*s = tail
		}
		if tail != nil {
			tail.next = nil
			live = append(live, chain{seq: c.seq, head: head})
		}
	}
	clear(h[len(live):])
	q.heap = live
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		q.siftDown(i)
	}
}
