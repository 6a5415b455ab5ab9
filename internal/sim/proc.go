package sim

import (
	"fmt"
	"runtime/debug"
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
	wakeStart // Spawn's initial hand-off
)

// Proc is a simulated process: a goroutine scheduled cooperatively by the
// kernel. Process bodies may only call Proc and Kernel methods from their own
// goroutine while they hold control. A process that gives control up — by
// parking or by returning — runs the kernel's event loop on its own goroutine
// until some process (possibly itself) becomes runnable.
//
// Blocking follows permit semantics similar to runtime parkers: Unpark on a
// non-parked process stores a permit that makes the next Park return
// immediately, so wake-ups are never lost. Park may also return spuriously;
// callers must re-check their condition in a loop.
type Proc struct {
	k           *Kernel
	id          int
	name        string
	resume      chan struct{} // shared: channel control hand-off to this process's goroutine from whichever goroutine drove the loop
	state       procState
	blockReason string

	parkSeq  uint64   // parks so far; the source of park tokens
	parkTok  uint64   // identity of the current park, for stale-wake detection
	timer    Event    // pending timed wake, if any
	kind     wakeKind // why the last park ended
	permit   bool     // stored unpark permit
	intPend  bool     // interrupt delivered while not interruptibly parked
	killed   bool     // Shutdown in progress: unwind at the next park point
	exitHook []func()
}

// killSentinel is the panic value used to unwind a process during Shutdown.
type killSentinel struct{}

// Spawn creates a process that will start running at the current simulated
// time (once the kernel reaches the start event).
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		k:           k,
		id:          len(k.procs),
		name:        name,
		resume:      make(chan struct{}),
		blockReason: "not started",
	}
	k.procs = append(k.procs, p)
	k.live++
	if k.obs != nil {
		k.obs.ProcSpawned(k.now, name)
	}
	// shared: channel the process trampoline; it runs only while every other goroutine waits on yielded/resume
	go func() {
		<-p.resume
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
			for _, fn := range p.exitHook {
				fn()
			}
			// The exiting process drives in place of a parking one. After
			// Shutdown or a panic, failure is set: drive fires nothing and
			// control goes straight back to the Run caller.
			k.handTo(k.drive())
		}()
		if p.killed {
			return
		}
		body(p)
	}()
	k.atWake(k.now, p, 0, wakeStart)
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's kernel-assigned index.
func (p *Proc) ID() int { return p.id }

// K returns the owning kernel.
func (p *Proc) K() *Kernel { return p.k }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == procDone }

// OnExit registers fn to run (in simulation context) when the process body
// returns.
func (p *Proc) OnExit(fn func()) { p.exitHook = append(p.exitHook, fn) }

// yield gives up control until p is runnable again. The parking process runs
// the event loop itself: an event that wakes p returns without touching a
// channel; one that wakes another process costs a single hand-off to it, and
// a stopped loop one back to the Run caller, after which p waits on resume.
//
// alloc-free
func (p *Proc) yield() {
	if next := p.k.drive(); next != p {
		p.k.handTo(next)
		<-p.resume
	}
}

// checkContext panics if the calling goroutine is not the running process.
//
// alloc-free
func (p *Proc) checkContext(op string) {
	if p.k.running != p {
		//lint:allow-panic blocking outside the running process deadlocks the scheduler; no caller can handle it
		panic(fmt.Sprintf("sim: %s called on %q while it is not the running process", op, p.name))
	}
}

// parkInternal blocks the process until woken. until >= 0 arms a timer wake
// at that absolute time. Returns the reason the process was woken.
//
// alloc-free
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
	p.yield()
	if p.killed {
		//lint:allow-panic killSentinel is the Kill unwind mechanism, recovered by the process trampoline
		panic(killSentinel{})
	}
	return p.kind
}

// tryWake applies a fired wake event to p and reports whether it made p
// runnable; the event loop then gives p control. Wake-ups arriving while the
// process is not parked are converted to a permit (unpark) or pending
// interrupt so they are not lost. An unpark or interrupt that was queued for
// an earlier park of a process that has since re-parked is delivered to the
// current park as a spurious wake (Park's contract makes callers loop), so
// queued wake-ups never collapse into the single permit bit. The token guards
// only the timer path: a timed wake is valid solely for the park that armed
// it.
//
// alloc-free
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
//
// alloc-free
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
//
// alloc-free
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
//
// alloc-free
func (p *Proc) Interrupt() {
	if p.state == procParked {
		p.k.atWake(p.k.now, p, p.parkTok, wakeInterrupt)
		return
	}
	p.intPend = true
}

// InterruptPending reports whether an interrupt is waiting to be delivered,
// consuming it if consume is true.
//
// alloc-free
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
//
// alloc-free
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
//
// alloc-free
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
