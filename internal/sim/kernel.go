package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
)

// Kernel is the discrete-event simulation engine. It owns the virtual clock,
// the event queue, and all processes. A Kernel is not safe for use from
// multiple OS threads; all interaction happens either before Run or from
// within event callbacks and process bodies, which the kernel serializes.
//
// Control is held by exactly one goroutine at a time — the Run caller or one
// process — and the event loop (drive) has no goroutine of its own: whoever
// gives up control fires events until one makes a process runnable.
type Kernel struct {
	now       Time
	seq       uint64
	processed uint64
	handOffs  uint64
	limit     Time // the RunUntil in progress fires no event beyond it; < 0 means none
	q         eventQueue
	yielded   chan struct{} // shared: channel control hand-off from a process goroutine back to the Run caller
	procs     []*Proc
	live      int
	failure   error
	rng       *rand.Rand
	obs       Observer
	running   *Proc
	caught    func() // recoverCallback, bound once so drive's defer allocates nothing
}

// NewKernel returns a kernel with the clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{
		yielded: make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
	}
	k.caught = k.recoverCallback
	return k
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsProcessed reports how many events have fired, a measure of
// simulation work done.
func (k *Kernel) EventsProcessed() uint64 { return k.processed }

// HandOffs reports how many times control has passed from one goroutine to
// another (one per channel send): the host-side price of the run's process
// switches. A process woken by an event it fired itself costs none.
func (k *Kernel) HandOffs() uint64 { return k.handOffs }

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
// The caller drives the event loop until an event makes a process runnable,
// hands it control and waits: from then on parking and exiting processes
// drive in its place (Proc.yield), and control comes back only when the loop
// has stopped — queue drained, limit reached, or failure set. What that means
// (deadlock, limit, error, a callback's panic) is decided here alone.
//
// alloc-free
func (k *Kernel) RunUntil(limit Time) error {
	k.limit = limit
	if p := k.drive(); p != nil {
		k.handTo(p)
		<-k.yielded
	}
	if cp, ok := k.failure.(*callbackPanic); ok {
		//lint:allow-panic re-raises an event callback's panic, recovered on whichever stack drove the loop, where Run's caller can see it
		panic(cp)
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
		//lint:allow-allocfree the deadlock diagnostic is a terminal path; it formats freely
		return k.deadlockError()
	}
	return nil
}

// drive is the event loop. It runs on whichever goroutine holds control, with
// no process running, and fires events in (at, seq) order until one makes a
// process runnable: that process is returned, already marked running, and the
// caller either is it (a self-wake: just return) or hands it control. nil
// means the loop has stopped — queue drained, limit reached, or failure set —
// and control belongs to the Run caller.
//
// A wake event is recycled before control moves (the woken process may run on
// another goroutine at once), a callback event after its fn returns.
//
// alloc-free
func (k *Kernel) drive() *Proc {
	k.running = nil
	defer k.caught()
	for k.failure == nil {
		// Peek-then-commit: next discards canceled events as it finds them
		// (each examined once) and pop removes the committed event without
		// rescanning.
		e := k.q.next()
		if e == nil || (k.limit >= 0 && e.at > k.limit) {
			break
		}
		k.q.pop(e)
		k.now = e.at
		e.fired = true
		k.processed++
		p := e.wake
		if p == nil {
			e.fn()
			k.q.recycle(e)
			continue
		}
		tok, kind := e.wakeTok, e.wakeKind
		k.q.recycle(e)
		if p.tryWake(tok, kind) {
			k.running = p
			p.state = procRunning
			return p
		}
	}
	return nil
}

// handTo passes control to next, or back to the Run caller when next is nil.
// The sender must then block on its own channel or exit.
//
// alloc-free
func (k *Kernel) handTo(next *Proc) {
	k.handOffs++
	if next == nil {
		k.yielded <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// callbackPanic is the failure left by an event callback that panicked. The
// loop may have been running on a bystander process's stack, so drive
// recovers there and RunUntil re-raises it on the Run caller's; the carried
// stack is the only trace of where the callback was.
type callbackPanic struct {
	value any
	stack []byte
}

func (c *callbackPanic) Error() string {
	return fmt.Sprintf("sim: event callback panicked: %v\n%s", c.value, c.stack)
}

// recoverCallback is drive's deferred recover, reached through the pre-bound
// k.caught. It overrides an earlier failure: the panic must reach the Run
// caller.
func (k *Kernel) recoverCallback() {
	if r := recover(); r != nil {
		k.failure = &callbackPanic{value: r, stack: debug.Stack()}
	}
}

// Shutdown terminates every live process so their goroutines exit. Call it
// when abandoning a simulation mid-run (e.g. after injecting a failure);
// using the kernel afterwards is invalid. It must not be called from inside
// Run, an event callback, or a process body.
//
// Setting failure first is what keeps it simple: a killed process's exit tail
// drives nothing and hands straight back.
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
		case procParked: // the park point panics with the kill sentinel
			p.parkTok = 0
			p.timer.Cancel()
			p.timer = Event{}
		case procReady: // the wrapper observes killed before the body runs
		default:
			continue
		}
		k.running = p
		p.state = procRunning
		k.handTo(p)
		<-k.yielded // p's goroutine has exited
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
