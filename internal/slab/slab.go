// Package slab hands out the first storage of many small, same-shaped
// containers from one allocation: a job's per-rank queues and indexes, a
// fabric's endpoints and connection records, a kernel's events. A simulation
// builds them all anew, so growing each from empty would allocate per owner.
package slab

// Windows carves one backing array into windows of n elements. Each window is
// handed out empty with its capacity capped at n (s[:0:n]), so an owner that
// outgrows its window moves away through ordinary append or slices.Insert and
// never writes into its neighbour's.
type Windows[T any] struct {
	rest []T
	n    int
}

// NewWindows reserves count windows of n elements each, in one allocation.
func NewWindows[T any](count, n int) Windows[T] {
	return Windows[T]{rest: make([]T, count*n), n: n}
}

// Next returns the next empty window, or nil once every window is handed out:
// an owner past the reservation grows from empty.
func (w *Windows[T]) Next() []T {
	if len(w.rest) < w.n {
		return nil
	}
	s := w.rest[:0:w.n]
	w.rest = w.rest[w.n:]
	return s
}

// Take returns the first element of *rest and advances past it, refilling
// *rest with a chunk of n zero elements when it is spent. A chunk is never
// regrown, so the pointer is good for as long as its owner keeps it.
func Take[T any](rest *[]T, n int) *T {
	if len(*rest) == 0 {
		*rest = make([]T, n)
	}
	p := &(*rest)[0]
	*rest = (*rest)[1:]
	return p
}
