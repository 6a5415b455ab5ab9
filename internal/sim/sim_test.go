package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(10, func() { fired = true })
	k.At(5, func() { e.Cancel() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Pending() {
		t.Fatal("canceled event still pending")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.At(10, func() {
		k.After(-5, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Fatalf("negative After fired at %v, want 10", at)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var wake Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(100 * Millisecond)
		wake = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 100*Millisecond {
		t.Fatalf("woke at %v, want 100ms", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	k := NewKernel(1)
	var marks []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			marks = append(marks, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20) // wakes at 30
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "b20")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "a10,b20,a30" {
		t.Fatalf("order = %v", order)
	}
}

func TestParkUnpark(t *testing.T) {
	k := NewKernel(1)
	var woke Time = -1
	p := k.Spawn("p", func(p *Proc) {
		for woke < 0 {
			if p.Park("test") {
				t.Error("unexpected interrupt")
			}
			woke = p.Now()
		}
	})
	k.At(50, func() { p.Unpark() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 50 {
		t.Fatalf("woke at %v, want 50", woke)
	}
}

func TestUnparkPermitNoLostWakeup(t *testing.T) {
	// Unpark before the process parks: the permit must make Park return
	// immediately.
	k := NewKernel(1)
	ran := false
	p := k.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		p.Park("should not block") // permit stored at t=10
		ran = true
	})
	k.At(10, func() { p.Unpark() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process never completed")
	}
	if k.Now() != 100 {
		t.Fatalf("finished at %v, want 100", k.Now())
	}
}

func TestUnparkDuringSleepIsNotLost(t *testing.T) {
	// An Unpark that lands while the process is in a plain Sleep becomes a
	// permit consumed by the next Park.
	k := NewKernel(1)
	var end Time
	p := k.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		p.Park("permit expected")
		end = p.Now()
	})
	k.At(40, func() { p.Unpark() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 100 {
		t.Fatalf("end = %v, want 100 (sleep uninterrupted, park immediate)", end)
	}
}

func TestInterruptDuringPark(t *testing.T) {
	k := NewKernel(1)
	var intrAt Time = -1
	p := k.Spawn("p", func(p *Proc) {
		if p.Park("wait") {
			intrAt = p.Now()
		}
	})
	k.At(25, func() { p.Interrupt() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if intrAt != 25 {
		t.Fatalf("interrupt at %v, want 25", intrAt)
	}
}

func TestSleepIInterrupted(t *testing.T) {
	k := NewKernel(1)
	var rem Time
	var intr bool
	p := k.Spawn("p", func(p *Proc) {
		rem, intr = p.SleepI(100)
	})
	k.At(30, func() { p.Interrupt() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !intr || rem != 70 {
		t.Fatalf("SleepI = (%v, %v), want (70, true)", rem, intr)
	}
}

func TestSleepIFullWhenNoInterrupt(t *testing.T) {
	k := NewKernel(1)
	var rem Time = -1
	var intr bool
	k.Spawn("p", func(p *Proc) {
		rem, intr = p.SleepI(100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if intr || rem != 0 {
		t.Fatalf("SleepI = (%v, %v), want (0, false)", rem, intr)
	}
}

func TestPendingInterruptDeliveredAtNextSleepI(t *testing.T) {
	// Interrupt during a plain Sleep stays pending until an interruptible
	// point.
	k := NewKernel(1)
	var rem Time
	var intr bool
	var sleepEnd Time
	p := k.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		sleepEnd = p.Now()
		rem, intr = p.SleepI(50)
	})
	k.At(30, func() { p.Interrupt() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sleepEnd != 100 {
		t.Fatalf("plain Sleep was cut short at %v", sleepEnd)
	}
	if !intr || rem != 50 {
		t.Fatalf("pending interrupt not delivered: SleepI = (%v, %v)", rem, intr)
	}
}

func TestInterruptWhileRunningSetsPending(t *testing.T) {
	k := NewKernel(1)
	var intr bool
	p := k.Spawn("p", func(p *Proc) {
		p.Interrupt() // self-interrupt while running
		_, intr = p.SleepI(10)
	})
	_ = p
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !intr {
		t.Fatal("pending interrupt not observed")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("stuck", func(p *Proc) {
		p.Park("waiting forever")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "waiting forever") {
		t.Fatalf("deadlock error lacks diagnostics: %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) {
		panic("boom")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not propagated: %v", err)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, ti := range []Time{10, 20, 30} {
		ti := ti
		k.At(ti, func() { fired = append(fired, ti) })
	}
	if err := k.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || k.Now() != 20 {
		t.Fatalf("RunUntil(20): fired=%v now=%v", fired, k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("resume after RunUntil: fired=%v", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	k := NewKernel(1)
	if err := k.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 500 {
		t.Fatalf("clock = %v, want 500", k.Now())
	}
}

func TestSpawnDuringRun(t *testing.T) {
	k := NewKernel(1)
	var childAt Time = -1
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childAt = c.Now()
		})
		p.Sleep(100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 15 {
		t.Fatalf("child finished at %v, want 15", childAt)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	k := NewKernel(1)
	var cond Cond
	ready := 0
	woke := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for ready == 0 {
				cond.Wait(p, "cond")
			}
			woke[i] = p.Now()
		})
	}
	k.At(10, func() {
		ready = 1
		cond.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range woke {
		if w != 10 {
			t.Fatalf("waiter %d woke at %v, want 10", i, w)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Time(k.Rand().Intn(100) + 1))
					log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatal("same seed produced different schedules")
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatal("Seconds")
	}
	if got := (90 * Second).Seconds(); got != 90 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{5 * Microsecond, "5us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-2 * Second, "-2s"},
		{math.MaxInt64, "9.22337e+09s"},
		{math.MinInt64, "-9.22337e+09s"}, // -t == t here; must not recurse forever
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of scheduling times, events fire in sorted order and
// same-time events fire in submission order.
func TestQuickEventHeapOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		k := NewKernel(1)
		type rec struct {
			t   Time
			seq int
		}
		var fired []rec
		for i, ti := range times {
			at := Time(ti)
			i := i
			k.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].t != fired[j].t {
				return fired[i].t < fired[j].t
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random park/unpark/interrupt traffic never loses a wake-up —
// the target process always finishes its fixed number of waits.
func TestQuickNoLostWakeups(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKernel(seed)
		rng := rand.New(rand.NewSource(seed))
		const waits = 20
		completed := 0
		p := k.Spawn("target", func(p *Proc) {
			for i := 0; i < waits; i++ {
				p.Park("wait") // interrupt or unpark both count
				completed++
			}
		})
		// Fire exactly `waits` wake-ups at random times, some coincident.
		at := Time(1)
		for i := 0; i < waits; i++ {
			at += Time(rng.Intn(3)) // allow 0 gaps
			if rng.Intn(2) == 0 {
				k.At(at, p.Unpark)
			} else {
				k.At(at, p.Interrupt)
			}
		}
		err := k.Run()
		// Spurious wake-ups may let the proc finish early; lost ones
		// deadlock. Only the deadlock is a failure.
		return err == nil && completed == waits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptOnFinishedProcIsHarmless(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("p", func(p *Proc) {})
	k.At(10, func() { p.Interrupt(); p.Unpark() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if p.state != procDone {
		t.Fatal("proc not done")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(5, func() { fired = true })
	k.At(10, func() { e.Cancel() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Pending() {
		t.Fatal("event should have fired before the cancel")
	}
}

func TestCheckContextPanicsOffProc(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("p", func(p *Proc) { p.Sleep(100) })
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("Sleep from kernel context did not panic")
			}
		}()
		p.Sleep(5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailAbortsRun(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.At(5, func() { k.Fail(fmt.Errorf("fatal model error")) })
	k.At(10, func() { ran = true })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "fatal model error") {
		t.Fatalf("Fail not propagated: %v", err)
	}
	if ran {
		t.Fatal("events kept running after Fail")
	}
}

// TestEventTimeAccessor: a handle is pending until its event fires, and the
// callback runs at the time it was scheduled for.
func TestEventTimeAccessor(t *testing.T) {
	k := NewKernel(1)
	at := Time(-1)
	e := k.At(42, func() { at = k.Now() })
	if !e.Pending() {
		t.Fatal("scheduled event not pending")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 || e.Pending() {
		t.Fatalf("fired at %v, pending after the run = %v; want 42, false", at, e.Pending())
	}
}

func TestRunningAccessor(t *testing.T) {
	k := NewKernel(1)
	var inside, outside *Proc
	var p *Proc
	p = k.Spawn("p", func(self *Proc) {
		inside = k.running
	})
	k.At(5, func() { outside = k.running })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inside != p {
		t.Fatal("running inside proc body should be the proc")
	}
	if outside != nil {
		t.Fatal("running in a plain event should be nil")
	}
}

// TestShutdownReleasesGoroutines: a Shutdown kernel strands no goroutine.
// Its processes' coroutines go idle, so the idle ones are released before
// each count: what is left over is a leak.
func TestShutdownReleasesGoroutines(t *testing.T) {
	ReleaseIdle()
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		k := NewKernel(1)
		for i := 0; i < 20; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				if i%3 == 0 {
					p.Park("forever")
				} else {
					p.Sleep(60 * Minute)
				}
			})
		}
		// One proc never even starts before the shutdown.
		if err := k.RunUntil(Second); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
	}
	ReleaseIdle()
	expectGoroutines(t, before)
}

// expectGoroutines fails the test unless the goroutine count drops to max,
// giving the runtime a moment to retire exited goroutines.
func expectGoroutines(t *testing.T, max int) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= max {
			return
		}
		runtime.Gosched()
		//lint:allow-simdeterminism real-time yield for a host-concurrency test, not simulated time
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d live, want <= %d", runtime.NumGoroutine(), max)
}

// TestBackoff: the helper equals, retry by retry, the three capped
// exponential backoffs it replaced — the checkpoint write retry, the tier
// drain retry, and the fabric's handshake retransmission.
func TestBackoff(t *testing.T) {
	writeRetry := func(attempt int) Time { // attempt counts from 1
		d := 100 * Millisecond
		for i := 1; i < attempt && d < 1600*Millisecond; i++ {
			d *= 2
		}
		return d
	}
	drainRetry := func(tries int) Time { // tries counts from 1
		return min(200*Millisecond<<(tries-1), 3200*Millisecond)
	}
	handshake := func(retries int) Time {
		d := 600 * Microsecond
		for i := 0; i < retries && d < 16*600*Microsecond; i++ {
			d *= 2
		}
		return d
	}
	for n := 0; n <= 10; n++ {
		for _, c := range []struct {
			name      string
			got, want Time
		}{
			{"write retry", Backoff(100*Millisecond, n, 1600*Millisecond), writeRetry(n + 1)},
			{"drain retry", Backoff(200*Millisecond, n, 3200*Millisecond), drainRetry(n + 1)},
			{"handshake", Backoff(600*Microsecond, n, 16*600*Microsecond), handshake(n)},
		} {
			if c.got != c.want {
				t.Errorf("%s n=%d: Backoff %v, old formula %v", c.name, n, c.got, c.want)
			}
		}
	}
}
