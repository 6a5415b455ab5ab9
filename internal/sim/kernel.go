package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
)

// Kernel is the discrete-event simulation engine. It owns the virtual clock,
// the event queue, and all processes. A Kernel is not safe for use from
// multiple OS threads; all interaction happens either before Run or from
// within event callbacks and process bodies, which the kernel serializes.
//
// Processes are coroutines of the Run caller: it alone fires events, and a
// wake that makes a process runnable resumes it until it parks or finishes.
type Kernel struct {
	now       Time
	seq       uint64
	processed uint64
	q         eventQueue
	procs     []*Proc
	live      int
	failure   error
	rng       *rand.Rand
	obs       Observer
	running   *Proc // nil while the event loop or a callback has control
}

// yieldEvery is how many events fire between two runtime.Gosched calls of the
// event loop (one pass over an empty run queue, ≈ 2 ns an event); see RunUntil.
const yieldEvery = 64

// NewKernel returns a kernel with the clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
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
		// pool refill on a cold miss; the steady state recycles every event
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
func (k *Kernel) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// atWake schedules a closure-free wake of p at absolute time t: the wake
// target, token, and kind live in the pooled event itself, so Unpark,
// Interrupt, timer wakes, and Spawn starts allocate nothing.
func (k *Kernel) atWake(t Time, p *Proc, tok uint64, kind wakeKind) Event {
	e := k.alloc(t)
	e.wake = p
	e.wakeTok = tok
	e.wakeKind = kind
	k.q.schedule(e, k.now)
	return Event{e: e, gen: e.gen}
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
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// limit). When it returns because of the limit, the clock is advanced to
// limit and remaining events stay queued; a subsequent call resumes.
//
// This is the event loop, and only the caller's goroutine ever runs it:
// events fire in (at, seq) order, a callback runs right here, and a wake that
// makes a process runnable resumes its coroutine and carries on when it comes
// back, parked or finished. A callback's panic therefore unwinds straight to
// the caller, no process stack in between.
//
// A coroutine switch never enters the Go scheduler, so the loop yields every
// yieldEvery events: on one P the collector's background goroutines (mark
// worker, sweeper, scavenger) would otherwise wait for the runtime's 10 ms
// forced preemption, and the heap's high-water mark would follow the wall clock.
func (k *Kernel) RunUntil(limit Time) error {
	for k.failure == nil {
		// Peek-then-commit: next discards canceled events as it finds them
		// (each examined once) and pop removes the committed event without
		// rescanning.
		e := k.q.next()
		if e == nil || (limit >= 0 && e.at > limit) {
			break
		}
		k.q.pop(e)
		k.now = e.at
		e.fired = true
		k.processed++
		if k.processed%yieldEvery == 0 {
			runtime.Gosched()
		}
		p := e.wake
		if p == nil {
			e.fn()
			k.q.recycle(e)
			continue
		}
		tok, kind := e.wakeTok, e.wakeKind
		k.q.recycle(e) // before the process runs: it may schedule at once
		if p.tryWake(tok, kind) {
			k.resume(p)
		}
	}
	if k.failure != nil {
		return k.failure
	}
	if limit >= 0 {
		// Bounded runs may legitimately leave processes parked awaiting
		// events the caller will inject later; only advance the clock, and
		// never rewind it to an earlier limit.
		if k.now < limit {
			k.now = limit
		}
		return nil
	}
	if k.live > 0 {
		return k.deadlockError()
	}
	return nil
}

// resume switches to p's coroutine and returns when p parks or finishes: the
// only place a process gains control, called by the event loop and Shutdown.
// A finished process drops its body and retires its coroutine.
func (k *Kernel) resume(p *Proc) {
	k.running = p
	p.state = procRunning
	p.co.next()
	k.running = nil
	if p.state == procDone {
		p.co.retire()
		p.co, p.body = nil, nil
	}
}

// Shutdown terminates every live process so that their coroutines go back to
// the idle list: a live process's coroutine is held by it, started or not,
// and its goroutine leaks with a kernel dropped mid-run. Call it when
// abandoning a simulation mid-run (e.g. after injecting a failure); using the
// kernel afterwards is invalid. It must not be called from inside Run, an
// event callback, or a process body.
//
// Each live process is marked killed and resumed once: a parked one panics
// with the kill sentinel at its park point and unwinds through its defers, a
// not-started one sees the mark before its body runs. Both end in the
// trampoline's tail, so the process is done, the observer hears it, and
// resume retires its coroutine.
func (k *Kernel) Shutdown() {
	if k.failure == nil {
		k.failure = fmt.Errorf("sim: kernel shut down")
	}
	for _, p := range k.procs {
		switch p.state {
		case procParked:
			p.parkTok = 0
			p.timer.Cancel()
			p.timer = Event{}
		case procReady:
		default:
			continue
		}
		p.killed = true
		k.resume(p)
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
