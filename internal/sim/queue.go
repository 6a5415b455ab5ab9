package sim

// eventQueue is the kernel's scheduling structure, specialized to *event so
// the hot path pays no interface boxing or indirect method dispatch:
//
//   - a hand-rolled 4-ary min-heap keyed on (at, seq) for future events —
//     half the depth of a binary heap, and every sift touches only
//     adjacent *event pointers;
//   - a FIFO ring buffer (the run queue) for events scheduled at exactly
//     the current instant, the Unpark/tryWake/Spawn shape — they are
//     already in (at, seq) order by construction, so heap discipline is
//     skipped entirely;
//   - a free list of recycled events feeding the kernel's allocator.
//
// Global firing order is strictly (at, seq) regardless of which structure
// holds an event: next merges the two fronts under the same comparison the
// old single heap used, so the refactor is invisible to every trace.
//
// Canceled events are discarded lazily — each is examined exactly once, at
// the front of its structure — except that when more than half the heap is
// canceled, maybeCompact sweeps it in one O(n) pass.
type eventQueue struct {
	heap []*event

	runq     []*event // ring buffer; len(runq) is always a power of two
	runqHead int
	runqLen  int

	free []*event

	nCanceled int // canceled events still sitting in heap or runq
}

// evLess orders events by (at, seq); the seq tie-break makes event ordering
// — and therefore the whole simulation — deterministic.
func evLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// schedule inserts e: the run queue when it fires at the current instant
// (seq order is FIFO order there), the heap otherwise.
func (q *eventQueue) schedule(e *event, now Time) {
	if e.at == now {
		q.pushRunq(e)
		return
	}
	q.heapPush(e)
}

// next returns the earliest pending event without removing it, or nil when
// none remain. Canceled events reaching the front are recycled as they are
// found, so each is examined exactly once across all calls.
func (q *eventQueue) next() *event {
	for q.runqLen > 0 && q.runq[q.runqHead].canceled {
		q.nCanceled--
		q.recycle(q.popRunq())
	}
	for len(q.heap) > 0 && q.heap[0].canceled {
		q.nCanceled--
		q.recycle(q.heapPopTop())
	}
	var r *event
	if q.runqLen > 0 {
		r = q.runq[q.runqHead]
	}
	if len(q.heap) == 0 {
		return r
	}
	h := q.heap[0]
	if r == nil || evLess(h, r) {
		return h
	}
	return r
}

// pop removes e, which must be the event the immediately preceding next
// call returned (peek-then-commit: no structure is rescanned).
func (q *eventQueue) pop(e *event) {
	if q.runqLen > 0 && q.runq[q.runqHead] == e {
		q.popRunq()
		return
	}
	q.heapPopTop()
}

// recycle clears an event's references (so closures and procs can be
// collected) and returns it to the free list for the kernel's allocator.
func (q *eventQueue) recycle(e *event) {
	e.fn = nil
	e.wake = nil
	// free-list growth is amortized; the steady state pops before it pushes
	q.free = append(q.free, e)
}

// pushRunq appends to the ring, growing it when full.
func (q *eventQueue) pushRunq(e *event) {
	if q.runqLen == len(q.runq) {
		// ring growth is amortized doubling; the steady state never grows
		q.growRunq()
	}
	q.runq[(q.runqHead+q.runqLen)&(len(q.runq)-1)] = e
	q.runqLen++
}

// popRunq removes and returns the ring's front element.
func (q *eventQueue) popRunq() *event {
	e := q.runq[q.runqHead]
	q.runq[q.runqHead] = nil
	q.runqHead = (q.runqHead + 1) & (len(q.runq) - 1)
	q.runqLen--
	return e
}

// growRunq doubles the ring, unwrapping it to the front of the new buffer.
func (q *eventQueue) growRunq() {
	n := len(q.runq) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]*event, n)
	for i := 0; i < q.runqLen; i++ {
		buf[i] = q.runq[(q.runqHead+i)&(len(q.runq)-1)]
	}
	q.runq = buf
	q.runqHead = 0
}

// 4-ary heap: children of node i are 4i+1..4i+4, parent is (i-1)/4.

func (q *eventQueue) heapPush(e *event) {
	// heap growth is amortized doubling; the steady state reuses capacity
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

func (q *eventQueue) heapPopTop() *event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.heap = h[:n]
	if n > 0 {
		q.heap[0] = last
		q.siftDown(0)
	}
	return top
}

// siftUp moves the element at index i up to its heap position, shifting
// ancestors down (one store per level, not a swap).
func (q *eventQueue) siftUp(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown moves the element at index i down to its heap position.
func (q *eventQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if evLess(h[j], h[m]) {
				m = j
			}
		}
		if !evLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// compactMin is the heap size below which lazy discard is always cheaper
// than a sweep.
const compactMin = 64

// maybeCompact sweeps canceled events out of the heap once they outnumber
// the live ones: one pass filters them into the free list, then the
// survivors are re-heapified bottom-up in O(n).
func (q *eventQueue) maybeCompact() {
	if len(q.heap) < compactMin || q.nCanceled*2 <= len(q.heap) {
		return
	}
	h := q.heap
	live := h[:0]
	for _, e := range h {
		if e.canceled {
			q.nCanceled--
			q.recycle(e)
		} else {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(h); i++ {
		h[i] = nil
	}
	q.heap = live
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		q.siftDown(i)
	}
}
