//go:build go1.23

package sim

import (
	"fmt"
	"iter"
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
	wakeStart // Spawn's first resume
)

// Proc is a simulated process: a coroutine (iter.Pull) that the kernel's event
// loop resumes when a wake makes it runnable and that switches back when it
// parks or returns. Process bodies may only call Proc and Kernel methods while
// they hold control. Nothing but process code ever runs on a process's stack:
// events fired while it is parked run on the Run caller's.
//
// Blocking follows permit semantics similar to runtime parkers: Unpark on a
// non-parked process stores a permit that makes the next Park return
// immediately, so wake-ups are never lost. Park may also return spuriously;
// callers must re-check their condition in a loop.
type Proc struct {
	k           *Kernel
	name        string
	next        func() (struct{}, bool) // switch to the coroutine; Kernel.resume only
	yield       func(struct{}) bool     // switch back to whoever called next; the park point only
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
// time (once the kernel reaches the start event). Its coroutine exists from
// here on and ends only when the body returns or Shutdown kills it.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		k:           k,
		name:        name,
		blockReason: "not started",
	}
	k.procs = append(k.procs, p)
	k.live++
	if k.obs != nil {
		k.obs.ProcSpawned(k.now, name)
	}
	// The process trampoline. It recovers everything the body can throw, so
	// nothing ever propagates out of next.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
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
		body(p)
	})
	k.atWake(k.now, p, 0, wakeStart)
	return p
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
	p.yield(struct{}{}) // back to the event loop until a wake resumes p
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
