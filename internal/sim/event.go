package sim

// event is the kernel-owned representation of a scheduled callback. Events
// are pooled: when one fires, or a canceled one is discarded from the queue,
// it returns to the kernel's free list and is reused by a later At / After /
// wake. The generation counter is bumped when a pooled event is reused,
// which is how external handles detect that the event they referred to is
// long gone (see Event).
type event struct {
	at   Time
	next *event // the next event of its chain, in scheduling order; see eventQueue
	gen  uint64
	k    *Kernel

	// Exactly one of fn / wake is set. fn is the general callback; wake is
	// the closure-free fast path used by Unpark, Interrupt, timer wakes,
	// and Spawn starts — the kernel dispatches the wake target directly, so
	// the hottest scheduling shapes allocate nothing.
	fn       func()
	wake     *Proc
	wakeTok  uint64
	wakeKind wakeKind

	canceled bool
	fired    bool
}

// Event is a handle to a scheduled callback, returned by Kernel.At and
// Kernel.After. It is a small value (not a pointer): copying it is free and
// the zero Event is an empty handle whose methods are safe no-ops.
//
// The kernel recycles fired and canceled events. A handle carries the
// generation of the event it was issued for, so a handle kept after its
// event completed can never touch the unrelated event that later reuses the
// slot: Cancel on a stale handle is a no-op and Pending reports false.
type Event struct {
	e   *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an event that has
// already fired or was already canceled — including one whose storage has
// been recycled for a newer event — is a safe no-op.
func (ev Event) Cancel() {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.fired || e.canceled {
		return
	}
	e.canceled = true
	e.k.q.nCanceled++
	e.k.q.maybeCompact()
}

// Pending reports whether the event is still scheduled: neither fired nor
// canceled. An empty or stale handle reports false.
func (ev Event) Pending() bool {
	e := ev.e
	return e != nil && e.gen == ev.gen && !e.fired && !e.canceled
}
