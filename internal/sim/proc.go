//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

type procState int

const (
	procReady procState = iota
	procRunning
	procParked
	procDone
)

// wakeKind records why a parked process was woken.
type wakeKind int

const (
	wakeTimer wakeKind = iota
	wakeUnpark
	wakeInterrupt
	wakeStart // Spawn's first resume
)

// Proc is a simulated process: a body run on a coroutine (iter.Pull) that the
// kernel's event loop resumes when a wake makes it runnable and that switches
// back when it parks or returns. Process bodies may only call Proc and Kernel
// methods while they hold control. Nothing but process code ever runs on a
// process's stack: events fired while it is parked run on the Run caller's.
//
// Blocking follows permit semantics similar to runtime parkers: Unpark on a
// non-parked process stores a permit that makes the next Park return
// immediately, so wake-ups are never lost. Park may also return spuriously;
// callers must re-check their condition in a loop.
type Proc struct {
	k           *Kernel
	name        string
	body        func(p *Proc) // nil once the process has exited
	co          *coroutine    // runs body; nil once the process has exited
	state       procState
	blockReason string

	parkSeq uint64   // parks so far; the source of park tokens
	parkTok uint64   // identity of the current park, for stale-wake detection
	timer   Event    // pending timed wake, if any
	kind    wakeKind // why the last park ended
	permit  bool     // stored unpark permit
	intPend bool     // interrupt delivered while not interruptibly parked
	killed  bool     // Shutdown in progress: unwind at the next park point
}

// killSentinel is the panic value used to unwind a process during Shutdown.
type killSentinel struct{}

// Spawn creates a process that will start running at the current simulated
// time (once the kernel reaches the start event). It takes an idle coroutine
// left behind by an exited process, or builds one when none is idle; the
// coroutine goes back to the idle list when the body returns, panics, or
// Shutdown kills the process.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		k:           k,
		name:        name,
		body:        body,
		blockReason: "not started",
	}
	k.procs = append(k.procs, p)
	k.live++
	if k.obs != nil {
		k.obs.ProcSpawned(k.now, name)
	}
	p.co = takeIdle()
	p.co.p = p
	k.atWake(k.now, p, 0, wakeStart)
	return p
}

// coroutine is a trampoline that runs one process after another: it runs
// p's body to its end, switches back to the kernel that resumed it, and waits
// idle until Spawn hands it the next process. The goroutine behind it lives
// as long as the coroutine, not as long as one process.
type coroutine struct {
	next  func() (struct{}, bool) // switch to the coroutine; Kernel.resume only
	stop  func()                  // end an idle coroutine and its goroutine
	yield func(struct{}) bool     // switch back to whoever called next; the park and idle points only
	p     *Proc                   // the process it runs; nil while idle
}

// maxIdle caps the idle list: above a 256-rank cell on each of four workers.
// A coroutine retired past it is stopped.
const maxIdle = 1024

// idle holds the coroutines of exited processes for Spawn to reuse, whichever
// kernel and goroutine retired them.
var idle struct {
	// shared: mutex hands idle coroutines between kernels run on different goroutines
	mu  sync.Mutex
	cos []*coroutine // guarded by mu
}

// takeIdle pops an idle coroutine, or builds a new one when none is idle.
// This is the only place a coroutine is created.
func takeIdle() *coroutine {
	idle.mu.Lock()
	if n := len(idle.cos); n > 0 {
		c := idle.cos[n-1]
		idle.cos[n-1] = nil
		idle.cos = idle.cos[:n-1]
		idle.mu.Unlock()
		return c
	}
	idle.mu.Unlock()
	c := new(coroutine)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// retire hands an exited process's coroutine back to the idle list, or stops
// it when the list is full. Only Kernel.resume calls it, after next has come
// back: the coroutine is waiting at its idle yield by then, so no other
// kernel can take and resume it before it gets there.
func (c *coroutine) retire() {
	c.p = nil
	idle.mu.Lock()
	if len(idle.cos) < maxIdle {
		idle.cos = append(idle.cos, c)
		idle.mu.Unlock()
		return
	}
	idle.mu.Unlock()
	c.stop()
}

// ReleaseIdle stops every idle coroutine, ending the goroutines kept for
// future processes. Live processes are untouched: only Shutdown ends those.
//
//lint:allow-unused the goroutine-leak tests of sim and harness call it to count goroutines without the idle ones
func ReleaseIdle() {
	idle.mu.Lock()
	cos := idle.cos
	idle.cos = nil
	idle.mu.Unlock()
	for _, c := range cos {
		c.stop()
	}
}

// loop is the trampoline: run the current process, wait idle, repeat until
// stopped. Nothing propagates out of next, because run recovers everything a
// body can throw.
func (c *coroutine) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run runs the current process's body, or nothing for a process killed
// before it started, and ends it: a panic other than the kill sentinel fails
// the run, and the process is done and the observer hears it.
func (c *coroutine) run() {
	p := c.p
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSentinel); !isKill {
				k.Fail(fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
			}
		}
		p.state = procDone
		k.live--
		if k.obs != nil {
			k.obs.ProcDone(k.now, p.name)
		}
	}()
	if p.killed {
		return
	}
	p.body(p)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// K returns the owning kernel.
func (p *Proc) K() *Kernel { return p.k }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// checkContext panics if the caller is not the running process.
func (p *Proc) checkContext(op string) {
	if p.k.running != p {
		//lint:allow-panic blocking outside the running process deadlocks the scheduler; no caller can handle it
		panic(fmt.Sprintf("sim: %s called on %q while it is not the running process", op, p.name))
	}
}

// parkInternal blocks the process until woken. until >= 0 arms a timer wake
// at that absolute time. Returns the reason the process was woken.
func (p *Proc) parkInternal(reason string, until Time) wakeKind {
	p.checkContext("park")
	p.parkSeq++
	tok := p.parkSeq
	p.parkTok = tok
	p.state = procParked
	p.blockReason = reason
	if p.k.obs != nil {
		p.k.obs.ProcParked(p.k.now, p.name, reason)
	}
	if until >= 0 {
		p.timer = p.k.atWake(until, p, tok, wakeTimer)
	}
	p.co.yield(struct{}{}) // back to the event loop until a wake resumes p
	if p.killed {
		//lint:allow-panic killSentinel is the Kill unwind mechanism, recovered by the process trampoline
		panic(killSentinel{})
	}
	return p.kind
}

// tryWake applies a fired wake event to p and reports whether it made p
// runnable; the event loop then resumes p. Wake-ups arriving while the
// process is not parked are converted to a permit (unpark) or pending
// interrupt so they are not lost. An unpark or interrupt that was queued for
// an earlier park of a process that has since re-parked is delivered to the
// current park as a spurious wake (Park's contract makes callers loop), so
// queued wake-ups never collapse into the single permit bit. The token guards
// only the timer path: a timed wake is valid solely for the park that armed
// it.
func (p *Proc) tryWake(tok uint64, kind wakeKind) bool {
	if kind == wakeStart {
		return p.state == procReady
	}
	if p.state != procParked || (kind == wakeTimer && p.parkTok != tok) {
		switch kind {
		case wakeUnpark:
			p.permit = true
		case wakeInterrupt:
			p.intPend = true
		}
		return false
	}
	p.parkTok = 0
	if kind != wakeTimer {
		p.timer.Cancel()
	}
	p.timer = Event{}
	p.kind = kind
	p.blockReason = ""
	p.state = procReady
	if p.k.obs != nil {
		p.k.obs.ProcUnparked(p.k.now, p.name)
	}
	return true
}

// Park blocks until Unpark or Interrupt, or returns immediately when a permit
// or pending interrupt is stored. It reports whether the process was woken by
// an interrupt. Park may return spuriously; callers must loop on their
// condition.
func (p *Proc) Park(reason string) (interrupted bool) {
	p.checkContext("Park")
	if p.intPend {
		p.intPend = false
		return true
	}
	if p.permit {
		p.permit = false
		return false
	}
	return p.parkInternal(reason, -1) == wakeInterrupt
}

// Unpark wakes p if it is parked, or stores a permit so its next Park returns
// immediately. It may be called from event callbacks or from other processes.
func (p *Proc) Unpark() {
	if p.state == procParked {
		p.k.atWake(p.k.now, p, p.parkTok, wakeUnpark)
		return
	}
	p.permit = true
}

// Interrupt wakes p if it is parked (Park and SleepI report the interrupt;
// Sleep keeps it pending), or marks an interrupt pending so the next
// interruptible blocking point observes it.
func (p *Proc) Interrupt() {
	if p.state == procParked {
		p.k.atWake(p.k.now, p, p.parkTok, wakeInterrupt)
		return
	}
	p.intPend = true
}

// InterruptPending reports whether an interrupt is waiting to be delivered,
// consuming it if consume is true.
func (p *Proc) InterruptPending(consume bool) bool {
	was := p.intPend
	if consume {
		p.intPend = false
	}
	return was
}

// Sleep blocks for d simulated time. It is not interruptible: interrupts and
// unparks received while sleeping are stored (as pending interrupt / permit)
// and the sleep continues to its deadline.
func (p *Proc) Sleep(d Time) {
	p.checkContext("Sleep")
	deadline := p.k.now + d
	for p.k.now < deadline {
		switch p.parkInternal("sleep", deadline) {
		case wakeInterrupt:
			p.intPend = true
		case wakeUnpark:
			p.permit = true
		}
	}
}

// SleepI blocks for d simulated time or until interrupted, whichever comes
// first. It returns the unslept remainder and whether an interrupt cut the
// sleep short. A pending interrupt makes it return immediately.
func (p *Proc) SleepI(d Time) (remaining Time, interrupted bool) {
	p.checkContext("SleepI")
	if p.intPend {
		p.intPend = false
		return d, true
	}
	deadline := p.k.now + d
	for p.k.now < deadline {
		switch p.parkInternal("sleepI", deadline) {
		case wakeInterrupt:
			return deadline - p.k.now, true
		case wakeUnpark:
			p.permit = true
		}
	}
	return 0, false
}
