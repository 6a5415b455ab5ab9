package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Kernel is the discrete-event simulation engine. It owns the virtual clock,
// the event queue, and all processes. A Kernel is not safe for use from
// multiple OS threads; all interaction happens either before Run or from
// within event callbacks and process bodies, which the kernel serializes.
type Kernel struct {
	now       Time
	seq       uint64
	processed uint64
	q         eventQueue
	yielded   chan struct{} // shared: channel control hand-off between kernel and process goroutines
	procs     []*Proc
	live      int
	failure   error
	rng       *rand.Rand
	obs       Observer
	running   *Proc
}

// NewKernel returns a kernel with the clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		yielded: make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsProcessed reports how many events have fired, a measure of
// simulation work done.
func (k *Kernel) EventsProcessed() uint64 { return k.processed }

// alloc takes an event from the free list (bumping its generation, which
// invalidates any handles to its previous life) or allocates a fresh one,
// and stamps it with the next sequence number.
//
// alloc-free
func (k *Kernel) alloc(t Time) *event {
	var e *event
	if n := len(k.q.free); n > 0 {
		e = k.q.free[n-1]
		k.q.free[n-1] = nil
		k.q.free = k.q.free[:n-1]
		e.gen++
		e.canceled = false
		e.fired = false
	} else {
		//lint:allow-allocfree pool refill on a cold miss; the steady state recycles every event
		e = &event{k: k}
	}
	k.seq++
	e.at = t
	e.seq = k.seq
	return e
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the simulation logic and panics. Events at exactly the current
// time take the run-queue fast path and skip heap discipline.
//
// alloc-free
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		//lint:allow-panic scheduling into the past corrupts the event queue; no caller can handle it
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e := k.alloc(t)
	e.fn = fn
	k.q.schedule(e, k.now)
	return Event{e: e, gen: e.gen}
}

// After schedules fn to run d after the current time.
//
// alloc-free
func (k *Kernel) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// atWake schedules a closure-free wake of p at absolute time t: the wake
// target, token, and kind live in the pooled event itself, so Unpark,
// Interrupt, timer wakes, and Spawn starts allocate nothing.
//
// alloc-free
func (k *Kernel) atWake(t Time, p *Proc, tok uint64, kind wakeKind) Event {
	e := k.alloc(t)
	e.wake = p
	e.wakeTok = tok
	e.wakeKind = kind
	k.q.schedule(e, k.now)
	return Event{e: e, gen: e.gen}
}

// dispatch runs one fired event: the wake fast path when a target process
// is stored, the general callback otherwise.
//
// alloc-free
func (k *Kernel) dispatch(e *event) {
	p := e.wake
	if p == nil {
		e.fn()
		return
	}
	if e.wakeKind == wakeStart {
		if p.state == procReady {
			k.switchTo(p)
		}
		return
	}
	p.tryWake(e.wakeTok, e.wakeKind)
}

// Fail aborts the simulation with err at the next opportunity. It is used by
// process wrappers on panic and may be used by models to signal fatal
// conditions.
func (k *Kernel) Fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}

// Run executes events until the queue drains or the simulation fails.
// It returns an error if a process panicked, Fail was called, or live
// processes remain blocked with no pending events (deadlock).
//
// alloc-free
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// limit). When it returns because of the limit, the clock is advanced to
// limit and remaining events stay queued; a subsequent call resumes.
//
// alloc-free
func (k *Kernel) RunUntil(limit Time) error {
	for k.failure == nil {
		// Peek-then-commit: next discards canceled events as it finds them
		// (each examined once) and pop removes the committed event without
		// rescanning.
		e := k.q.next()
		if e == nil {
			break
		}
		if limit >= 0 && e.at > limit {
			k.now = limit
			return k.failure
		}
		k.q.pop(e)
		k.now = e.at
		e.fired = true
		k.processed++
		k.dispatch(e)
		k.q.recycle(e)
	}
	if k.failure != nil {
		return k.failure
	}
	if limit >= 0 {
		// Bounded runs may legitimately leave processes parked awaiting
		// events the caller will inject later; only advance the clock.
		if k.now < limit {
			k.now = limit
		}
		return nil
	}
	if k.live > 0 {
		//lint:allow-allocfree the deadlock diagnostic is a terminal path; it formats freely
		return k.deadlockError()
	}
	return nil
}

// Shutdown terminates every live process so their goroutines exit. Call it
// when abandoning a simulation mid-run (e.g. after injecting a failure);
// using the kernel afterwards is invalid. It must not be called from inside
// Run, an event callback, or a process body.
func (k *Kernel) Shutdown() {
	if k.failure == nil {
		k.failure = fmt.Errorf("sim: kernel shut down")
	}
	for _, p := range k.procs {
		if p.state == procDone {
			continue
		}
		p.killed = true
		switch p.state {
		case procParked:
			p.parkTok = 0
			p.timer.Cancel()
			p.timer = Event{}
			p.state = procReady
			k.switchTo(p) // the park point panics with the kill sentinel
		case procReady:
			k.switchTo(p) // the wrapper observes killed before the body runs
		}
	}
}

// deadlockError builds a diagnostic listing every live process and why it is
// blocked.
func (k *Kernel) deadlockError() error {
	var blocked []string
	for _, p := range k.procs {
		if p.state != procDone {
			blocked = append(blocked, fmt.Sprintf("%s: %s", p.name, p.blockReason))
		}
	}
	sort.Strings(blocked)
	return fmt.Errorf("sim: deadlock with %d live process(es):\n  %s",
		len(blocked), strings.Join(blocked, "\n  "))
}

// switchTo transfers control to p and blocks until p yields back.
//
// alloc-free
func (k *Kernel) switchTo(p *Proc) {
	prev := k.running
	k.running = p
	p.state = procRunning
	p.resume <- struct{}{}
	<-k.yielded
	k.running = prev
}

// Running returns the currently executing process, or nil when the kernel is
// running an event callback that is not a process wake-up.
func (k *Kernel) Running() *Proc { return k.running }

// Observer receives process scheduling notifications: spawn, park, unpark,
// and completion. It is the kernel-level feed of the observability layer
// (internal/obs attaches a Bus adapter via SetObserver). Implementations
// must not re-enter the kernel; they are called synchronously in kernel
// order, so everything they record is deterministic for a given seed.
//
// The hooks take only concrete types (Time, string), so the disabled path
// is one nil check and the enabled path boxes nothing; the kernel's
// zero-alloc steady state is preserved by any observer that does not itself
// allocate per call.
type Observer interface {
	// ProcSpawned is called when a process is created.
	ProcSpawned(now Time, name string)
	// ProcParked is called when a running process blocks.
	ProcParked(now Time, name, reason string)
	// ProcUnparked is called when a parked process is woken.
	ProcUnparked(now Time, name string)
	// ProcDone is called when a process body returns.
	ProcDone(now Time, name string)
}

// SetObserver installs a scheduling observer. A nil observer disables
// observation; the disabled path is a single pointer check per scheduling
// action.
func (k *Kernel) SetObserver(o Observer) { k.obs = o }
