// Package allocfree is a fixture for the allocfree analyzer: every
// allocation shape inside an // alloc-free function is flagged, the
// deliberate exemptions (panic subtrees, dynamic and interface-method
// calls, pointer-shaped boxing) are not, and a reasoned
// //lint:allow-allocfree directive suppresses.
package allocfree

import "math"

type item struct {
	v    int
	next *item
}

type ring struct {
	buf  []*item
	free []*item
	m    map[string]int
	fn   func() int
}

// alloc-free
func (r *ring) pop() *item {
	n := len(r.free)
	e := r.free[n-1]
	r.free = r.free[:n-1]
	return e
}

// alloc-free
func (r *ring) push(e *item) {
	r.free = append(r.free, e) // want `append may grow the backing array`
}

// alloc-free
func (r *ring) pushAmortized(e *item) {
	//lint:allow-allocfree free-list growth is amortized; the steady state reuses capacity
	r.free = append(r.free, e)
}

// alloc-free
func (r *ring) fresh() *item {
	return &item{} // want `address of composite literal escapes to the heap`
}

// alloc-free
func (r *ring) lit() []int {
	return []int{1} // want `slice/map composite literal allocates`
}

// alloc-free
func (r *ring) structValue() item {
	return item{v: 1} // a struct composite by value stays on the stack
}

// alloc-free
func (r *ring) builtins() {
	_ = make([]int, 4) // want `make allocates`
	_ = new(item)      // want `new allocates`
}

// alloc-free
func (r *ring) closure() func() {
	return func() {} // want `closure literal allocates`
}

// alloc-free
func (r *ring) spawn() {
	go r.builtins() // want `go statement allocates a goroutine`
}

// alloc-free
func (r *ring) mapGrow(k string) {
	r.m[k] = 1 // want `map assignment may grow the map`
}

// alloc-free
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

// alloc-free
func conv(b []byte) string {
	return string(b) // want `string conversion copies its operand`
}

// alloc-free
func (r *ring) methodValue() func() *item {
	return r.pop // want `method value allocates its receiver binding`
}

// alloc-free
func (r *ring) callsAnnotated() *item {
	return r.pop()
}

// alloc-free
func (r *ring) callsUnverified() {
	r.helper() // want `calls helper, which is not marked // alloc-free`
}

func (r *ring) helper() {}

// alloc-free
func crossPkg(f float64) uint64 {
	return math.Float64bits(f) // want `calls math.Float64bits across a package boundary`
}

// alloc-free
func (r *ring) panicPath(ok bool, who string) {
	if !ok {
		// The argument subtree of a panic is a terminal path: its
		// formatting may allocate.
		panic("corrupt ring state reported by " + who)
	}
}

// alloc-free
func (r *ring) dynamicCall() int {
	return r.fn() // a stored func value owns its own allocation budget
}

type sink interface {
	Observe(v int64)
}

// alloc-free
func feed(s sink, v int64) {
	s.Observe(v) // interface-method callees own their own budget
}

// alloc-free
func take(x interface{}) {}

// alloc-free
func boxes(r *ring, n int) {
	take(r)   // pointer-shaped: fits the interface word
	take(nil) // nil never boxes
	take(1)   // small constant scalars come from the runtime's static boxes
	take(n)   // want `boxing int into an interface allocates`
}

// alloc-free
func variadicArgs() {
	variadic(1, 2) // want `variadic call allocates its argument slice`
}

// alloc-free
func variadic(xs ...int) {}

type queue[T any] struct{ buf []T }

// alloc-free
func (q *queue[T]) first() T { return q.buf[0] }

func (q *queue[T]) last() T { return q.buf[len(q.buf)-1] }

// alloc-free
func genericCallee(q *queue[int]) int {
	// The annotation on a generic type's method covers every instantiation.
	return q.first() + q.last() // want `calls last, which is not marked // alloc-free`
}

func unannotated() []*item {
	// No annotation, no contract: allocate freely.
	return append([]*item{}, &item{}, new(item))
}
