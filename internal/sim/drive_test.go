package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// These tests pin the mechanism of the process-driven event loop — how many
// goroutine hand-offs a run costs, who sees a callback's panic, what the
// clock does at a limit — rather than its nanoseconds.

// TestRunUntilNeverRewindsClock: a later RunUntil with an earlier limit must
// not move the clock back past events that already fired.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	k := NewKernel(1)
	k.At(10, nop)
	k.At(30, nop)
	if err := k.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 20 {
		t.Fatalf("RunUntil(20): now = %v, want 20", k.Now())
	}
	if err := k.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 20 {
		t.Fatalf("RunUntil(5) after RunUntil(20): now = %v, want 20 (clock ran backwards)", k.Now())
	}
	k.At(k.Now(), nop) // must not be "scheduling into the past"
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 30 {
		t.Fatalf("final clock = %v, want 30", k.Now())
	}
}

// explodingCallback is a named function so the carried stack can be checked
// for it.
func explodingCallback() { panic("callback exploded") }

// TestCallbackPanicReachesRunCaller: an event callback that panics while the
// loop runs on a parked process's stack must surface on the Run caller's
// goroutine, with the original message and the callback's frame, and must
// not unwind or blame the process whose stack it happened to be on.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	k := NewKernel(1)
	deferredRan := 0
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(p *Proc) {
			defer func() { deferredRan++ }()
			p.Park("bystander")
		})
	}
	// Both processes are parked by t=10, so the callback fires from the loop
	// driven by whichever of them parked last.
	k.At(10, explodingCallback)

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		err := k.Run()
		t.Errorf("Run returned (%v); want the callback's panic", err)
	}()
	if recovered == nil {
		t.Fatal("callback panic did not reach Run's caller")
	}
	printed := fmt.Sprint(recovered)
	for _, want := range []string{"callback exploded", "explodingCallback"} {
		if !strings.Contains(printed, want) {
			t.Errorf("re-raised panic lacks %q:\n%s", want, printed)
		}
	}
	if deferredRan != 0 {
		t.Errorf("%d bystander process(es) were unwound by the callback's panic", deferredRan)
	}
	if k.failure == nil || strings.Contains(k.failure.Error(), "process \"") {
		t.Errorf("failure blames a process: %v", k.failure)
	}
	// The kernel is dead but its processes are still parked; Shutdown must
	// be able to release them (and only now do their defers run).
	k.Shutdown()
	if deferredRan != 2 {
		t.Errorf("Shutdown after a callback panic unwound %d of 2 processes", deferredRan)
	}
}

// TestHandOffsOneSleeper: a lone process wakes itself — its own timer fires
// in the loop it drives while parked — so a thousand sleeps cost no hand-off.
// Only the start (Run caller → process) and the finish (process → Run caller)
// cross goroutines. Callbacks in between run on the process's goroutine with
// no process running.
func TestHandOffsOneSleeper(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(10)
		}
	})
	callbacks := 0
	for i := 0; i < 10; i++ {
		k.At(Time(1005+1000*i), func() {
			callbacks++
			if r := k.Running(); r != nil {
				t.Errorf("Running() = %q inside a callback fired from a process-driven loop, want nil", r.Name())
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Nine fire while the process is parked in a sleep; the tenth, at 10005,
	// lies beyond its last sleep and is fired by its exit tail.
	if callbacks != 10 || k.Now() != 10005 {
		t.Fatalf("callbacks = %d, now = %v; want 10 at 10005", callbacks, k.Now())
	}
	// Had any callback needed the Run caller's goroutine there would be two
	// more hand-offs per callback.
	if got := k.HandOffs(); got != 2 {
		t.Fatalf("HandOffs = %d, want 2 (start, finish)", got)
	}
}

// TestHandOffsSelfUnpark: a process that parks and is unparked by a
// same-instant event it scheduled itself never leaves its goroutine.
func TestHandOffsSelfUnpark(t *testing.T) {
	k := NewKernel(1)
	var self *Proc
	unparkSelf := func() { self.Unpark() }
	rounds := 0
	self = k.Spawn("p", func(p *Proc) {
		for rounds < 100 {
			k.At(k.Now(), unparkSelf)
			p.Park("self-unpark")
			rounds++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 100 {
		t.Fatalf("rounds = %d", rounds)
	}
	if got := k.HandOffs(); got != 2 {
		t.Fatalf("HandOffs = %d, want 2: a self-wake must not touch a channel", got)
	}
}

// TestHandOffsPingPong: two processes alternately unparking each other switch
// directly, one hand-off per wake (the kernel-goroutine design paid two: 4N +
// c for this run).
func TestHandOffsPingPong(t *testing.T) {
	const n = 500
	k := NewKernel(1)
	var pa, pb *Proc
	pa = k.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park("ping")
			pb.Unpark()
		}
	})
	pb = k.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			pa.Unpark()
			p.Park("pong")
		}
	})
	k.At(0, func() {
		if k.Running() != nil {
			t.Error("Running() != nil inside a callback")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Run caller → ping; ping parks and starts pong; each of the n rounds
	// is pong → ping → pong (ping's last hand-off comes from its exit tail);
	// pong finishes and hands back to the Run caller.
	if got, want := k.HandOffs(), uint64(2*n+3); got != want {
		t.Fatalf("HandOffs = %d, want %d (2N + 3)", got, want)
	}
}

// TestHandOffsManySleepers: 32 processes sleeping in lockstep wake one
// another in turn — one hand-off per park, none through a kernel goroutine —
// and a Shutdown in the middle of such a run still releases every goroutine
// and runs exit hooks.
func TestHandOffsManySleepers(t *testing.T) {
	const procs, sleeps = 32, 25
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	exited := 0
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.OnExit(func() { exited++ })
			for {
				p.Sleep(10)
			}
		})
	}
	k.At(15, func() {
		if k.Running() != nil {
			t.Error("Running() != nil inside a callback fired between sleepers")
		}
	})
	// Stop with every process inside its 26th sleep.
	if err := k.RunUntil(10*sleeps + 5); err != nil {
		t.Fatal(err)
	}
	// One hand-off per completed sleep and one per start, plus the one back
	// to the Run caller (two per sleep at the kernel-goroutine design).
	if got, max := k.HandOffs(), uint64(procs*sleeps+procs+1); got > max {
		t.Fatalf("HandOffs = %d, want <= %d (32·K + c)", got, max)
	}
	k.Shutdown()
	if exited != procs {
		t.Fatalf("exit hooks ran for %d of %d processes", exited, procs)
	}
	expectGoroutines(t, before)
}
