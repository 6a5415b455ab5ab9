package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// len reports how many events are queued, including not-yet-discarded
// canceled ones.
func (q *eventQueue) len() int { return q.n }

// churnResult is everything one churn run observed, for cross-run and
// invariant comparison.
type churnResult struct {
	fired     []int  // event ids in firing order
	at        []Time // at[id] = scheduled time of event id
	mustSkip  map[int]bool
	handles   []Event // every handle ever issued, for stale-handle checks
	processed uint64
}

// churnRun drives a kernel through a randomized schedule/cancel/reschedule
// workload heavy enough to cycle events through the pool many times, its
// times drawn by spreadInstants.
func churnRun(t *testing.T, seed int64) churnResult {
	t.Helper()
	return churn(t, seed, spreadInstants)
}

// spreadInstants draws an event time over a window of 40 ns ahead of now
// (one child in four at now itself); now < 0 draws an initial time.
func spreadInstants(rng *rand.Rand, now Time) Time {
	if now < 0 {
		return Time(rng.Intn(60))
	}
	if rng.Intn(4) == 0 {
		return now
	}
	return now + Time(1+rng.Intn(40))
}

// collidingInstants returns the first n positive instants that share slot
// 1's open-tail entry, ascending.
func collidingInstants(n int) []Time {
	var ts []Time
	for t := Time(1); len(ts) < n; t++ {
		if slot(t) == slot(1) {
			ts = append(ts, t)
		}
	}
	return ts
}

// churn is churnRun with the event times drawn by instant (now is -1 for the
// initial batch). Callbacks schedule children (some at the current instant,
// appending to the firing chain) and cancel still-future events (exercising
// lazy discard and compaction). Event ids are assigned in scheduling order,
// so the firing order must be ascending (at, id).
func churn(t *testing.T, seed int64, instant func(rng *rand.Rand, now Time) Time) churnResult {
	t.Helper()
	k := NewKernel(seed)
	rng := rand.New(rand.NewSource(seed))
	res := churnResult{mustSkip: map[int]bool{}}
	budget := 2000

	type pending struct {
		id int
		ev Event
	}
	var open []pending // candidates for cancellation

	var schedule func(at Time)
	schedule = func(at Time) {
		if budget == 0 {
			return
		}
		budget--
		id := len(res.at)
		res.at = append(res.at, at)
		ev := k.At(at, func() {
			res.fired = append(res.fired, id)
			for n := rng.Intn(3); n > 0; n-- {
				schedule(instant(rng, k.Now()))
			}
			// Cancel a random still-future event. Only events with at
			// strictly after now are eligible, so a canceled event provably
			// must never fire.
			if len(open) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(open))
				c := open[i]
				if c.ev.Pending() && res.at[c.id] > k.Now() {
					c.ev.Cancel()
					res.mustSkip[c.id] = true
				}
				open[i] = open[len(open)-1]
				open = open[:len(open)-1]
			}
		})
		res.handles = append(res.handles, ev)
		open = append(open, pending{id: id, ev: ev})
	}

	for i := 0; i < 40; i++ {
		schedule(instant(rng, -1))
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	res.processed = k.EventsProcessed()
	return res
}

// TestQuickChurnOrdering checks, across random seeds, that chains, the
// open-tail table and the pool keep the single-heap contract: firing order is
// exactly (at, scheduling order), canceled-in-advance events never fire,
// everything else fires exactly once, and two runs with the same seed are
// identical.
func TestQuickChurnOrdering(t *testing.T) {
	checkChurn(t, spreadInstants)
}

// TestQuickChurnOrderingColliding is TestQuickChurnOrdering with every time
// drawn from the next four of a run of instants that share one open-tail
// slot, so chains are sealed and restarted all the time: scheduling at one
// instant seals the open chain of another.
func TestQuickChurnOrderingColliding(t *testing.T) {
	coll := collidingInstants(64)
	checkChurn(t, func(rng *rand.Rand, now Time) Time {
		i := sort.Search(len(coll), func(i int) bool { return coll[i] >= now })
		return coll[min(i+rng.Intn(4), len(coll)-1)]
	})
}

// checkChurn runs the churn property over random seeds with times drawn by
// instant.
func checkChurn(t *testing.T, instant func(rng *rand.Rand, now Time) Time) {
	t.Helper()
	f := func(seed int64) bool {
		a := churn(t, seed, instant)

		// Firing order is strictly increasing in (at, id).
		for i := 1; i < len(a.fired); i++ {
			p, c := a.fired[i-1], a.fired[i]
			if a.at[p] > a.at[c] || (a.at[p] == a.at[c] && p >= c) {
				t.Errorf("seed %d: fired %d (at %v) before %d (at %v)",
					seed, p, a.at[p], c, a.at[c])
				return false
			}
		}

		// Fired exactly the non-canceled events, each once.
		firedSet := make(map[int]bool, len(a.fired))
		for _, id := range a.fired {
			if firedSet[id] {
				t.Errorf("seed %d: event %d fired twice", seed, id)
				return false
			}
			firedSet[id] = true
			if a.mustSkip[id] {
				t.Errorf("seed %d: canceled event %d fired", seed, id)
				return false
			}
		}
		if len(a.fired)+len(a.mustSkip) != len(a.at) {
			t.Errorf("seed %d: %d fired + %d canceled != %d scheduled",
				seed, len(a.fired), len(a.mustSkip), len(a.at))
			return false
		}
		if a.processed != uint64(len(a.fired)) {
			t.Errorf("seed %d: EventsProcessed %d, fired %d",
				seed, a.processed, len(a.fired))
			return false
		}

		// Determinism: an identical second run fires the same sequence.
		b := churn(t, seed, instant)
		if len(a.fired) != len(b.fired) {
			t.Errorf("seed %d: runs fired %d vs %d events",
				seed, len(a.fired), len(b.fired))
			return false
		}
		for i := range a.fired {
			if a.fired[i] != b.fired[i] {
				t.Errorf("seed %d: runs diverge at firing %d: %d vs %d",
					seed, i, a.fired[i], b.fired[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleSafety: handles that outlive their event — including ones
// whose storage was recycled for unrelated later events — are inert.
// Cancel on them is a no-op that cannot kill the pool's current tenant.
func TestStaleHandleSafety(t *testing.T) {
	res := churnRun(t, 7)

	// After a drained run every handle is settled: nothing reports pending,
	// and Cancel neither panics nor disturbs anything.
	for _, h := range res.handles {
		if h.Pending() {
			t.Fatalf("handle pending after the queue drained")
		}
		h.Cancel()
	}

	// Run a batch to completion to populate the free list, keep the settled
	// handles, schedule a fresh batch (which reuses the pooled events), and
	// cancel every stale handle: the fresh batch must be untouched.
	k2 := NewKernel(11)
	var stale []Event
	for i := 0; i < 100; i++ {
		stale = append(stale, k2.After(Time(i+1), nop))
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	fired := 0
	var fresh []Event
	for i := 0; i < 100; i++ {
		fresh = append(fresh, k2.After(Time(i+1), func() { fired++ }))
	}
	for _, h := range stale {
		if h.Pending() {
			t.Fatalf("settled handle reports pending")
		}
		h.Cancel() // must not cancel the pooled event's new life
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("stale Cancel killed live events: %d of 100 fired", fired)
	}
	for _, h := range fresh {
		if h.Pending() {
			t.Fatalf("fresh handle still pending after run")
		}
	}
}

// TestCancelHeavyCompaction cancels most of a large queue (one chain per
// instant) and checks that compaction reclaims the space immediately while
// the survivors still fire in order.
func TestCancelHeavyCompaction(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	record := func() { fired = append(fired, k.Now()) }
	var handles []Event
	n := 1024
	for i := 0; i < n; i++ {
		handles = append(handles, k.At(Time(1000+i), record))
	}
	for i, h := range handles {
		if i%4 != 0 {
			h.Cancel()
		}
	}
	// Canceling 3/4 of the heap crosses the one-half compaction threshold,
	// so at least one sweep must have run, and the sweeps maintain the
	// invariant that canceled events never outnumber live ones.
	if got := k.q.len(); got > n/2 {
		t.Fatalf("queue holds %d events after canceling 3/4 of %d; compaction did not run", got, n)
	}
	if k.q.nCanceled*2 > k.q.len() && k.q.len() >= compactMin {
		t.Fatalf("nCanceled = %d of %d queued: compaction invariant violated", k.q.nCanceled, k.q.len())
	}
	k.At(2500, record)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := n / 4
	if len(fired) != want+1 { // +1 for the 2500 marker
		t.Fatalf("fired %d events, want %d", len(fired), want+1)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("events fired out of order after compaction: %v then %v", fired[i-1], fired[i])
		}
	}
}

// TestRunqOrderAgainstHeap pins the order at one instant: an event scheduled
// at the current instant joins the tail of the firing chain, so it fires
// after an event scheduled earlier for the same instant, exactly as a single
// heap keyed on a global sequence number would have fired them.
func TestRunqOrderAgainstHeap(t *testing.T) {
	k := NewKernel(1)
	var order []string
	mark := func(s string) func() {
		return func() { order = append(order, s) }
	}
	k.At(10, mark("A")) // scheduled 1st, starts the chain for 10
	k.At(10, func() {   // 2nd, appended
		order = append(order, "B")
		// now = 10: C is scheduled at the firing instant, but D (3rd) is
		// still queued for it — C joins the chain behind D, so D fires
		// first, exactly as a single heap would have.
		k.At(10, mark("C")) // 4th, appended at now
	})
	k.At(10, mark("D")) // 3rd, appended
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "A B D C"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += " "
		}
		got += s
	}
	if got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

// TestSealedChainOrder schedules two instants that share an open-tail slot
// interleaved (A, B, A, B), so every chain but the last is sealed; cancels
// the open tail at B and forces a compaction; schedules at B again; and
// schedules at A from a callback at A. The firing order must be the
// reference sort by (at, scheduling index).
func TestSealedChainOrder(t *testing.T) {
	coll := collidingInstants(2)
	a, b := coll[0], coll[1]
	far := b + 1000
	k := NewKernel(1)
	var at []Time // at[id] of every event, ids in scheduling order
	dead := map[int]bool{}
	var fired []int
	var sched func(t Time, then func()) Event
	sched = func(t Time, then func()) Event {
		id := len(at)
		at = append(at, t)
		return k.At(t, func() {
			fired = append(fired, id)
			if then != nil {
				then()
			}
		})
	}
	cancel := func(id int, ev Event) {
		ev.Cancel()
		dead[id] = true
	}

	var fillers []Event
	for i := 0; i < 100; i++ {
		fillers = append(fillers, sched(far, nil))
	}
	sched(a, func() {
		sched(a, func() { sched(a, nil) }) // at now, from a callback
	})
	sched(b, nil)
	sched(a, func() { sched(a, nil) })
	sched(b, nil)
	tailID := len(at)
	tail := sched(b, nil) // appends to B's open chain: the open tail
	cancel(tailID, tail)
	compacted := false
	for i, ev := range fillers {
		cancel(i, ev)
		if k.q.nCanceled == 0 {
			compacted = true
			break
		}
	}
	if !compacted {
		t.Fatal("canceling fillers never triggered maybeCompact")
	}
	sched(b, nil) // must append to B's chain behind the canceled tail's place
	sched(b, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	var want []int
	for id := range at {
		if !dead[id] {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing %d: event %d (at %v), want %d (at %v)\nfired %v\nwant  %v",
				i, fired[i], at[fired[i]], want[i], at[want[i]], fired, want)
		}
	}
}
