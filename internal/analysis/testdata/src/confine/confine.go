// Package confine is a fixture for the confine analyzer:
// concurrency-typed fields and locals, goroutine launches, and written or
// concurrency-typed package-level variables must carry a matching
// // shared: <channel|mutex|atomic> declaration.
package confine

import "sync"

type coordinator struct {
	mu    sync.Mutex // want `field mu can be shared between concurrent kernels`
	done  chan int   // want `field done can be shared between concurrent kernels`
	state int
}

type embedder struct {
	sync.Mutex // want `embedded sync.Mutex can be shared between concurrent kernels`
}

type annotated struct {
	// shared: mutex protects the result table across Runner workers
	mu sync.Mutex
	wake chan struct{} // shared: channel kernel wake handoff
	cnt  int
}

type mismatched struct {
	// shared: atomic
	mu sync.Mutex // want `field mu is declared // shared: atomic but its type requires // shared: mutex`
}

func launches() {
	go work() // want `goroutine launch runs beside the kernel`
	// shared: channel fan-in drains into the kernel wake channel
	go work()
}

func work() {}

func locals() {
	var wg sync.WaitGroup // want `local wg can be shared between concurrent kernels`
	ch := make(chan int)  // want `local ch can be shared between concurrent kernels`
	// shared: channel worker feed, closed before the function returns
	idx := make(chan int)
	n := 0
	_, _, _, _ = wg, ch, idx, n
}

// Package-level state: a plain variable matters once something writes it; a
// concurrency-typed one is shared machinery even untouched.

var hits int // want `package-level variable hits can be shared between concurrent kernels`

func bump() { hits++ }

var table = map[string]int{} // want `package-level variable table can be shared between concurrent kernels`

func record(k string) { table[k]++ }

var readonlyName = "never written"

// shared: magic beans // want `unknown sharing mechanism "magic"`
var spell chan int // want `package-level variable spell can be shared between concurrent kernels`

// shared: channel fixture-wide fan-in, owned by the kernel
var fan chan int
