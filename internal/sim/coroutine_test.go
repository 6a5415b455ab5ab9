package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// These tests pin the contract of the coroutine kernel — who fires events,
// who sees a callback's panic, what Shutdown owes every kind of live process,
// what a spawn costs — rather than its nanoseconds.

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

// explodingCallback is a named function so the panicking stack can be checked
// for it.
func explodingCallback() { panic("callback exploded") }

// TestCallbackPanicReachesRunCaller: an event callback that panics with
// processes parked unwinds to Run's caller natively — the original value, the
// callback's own frame still on the stack — and neither unwinds nor blames a
// process.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	k := NewKernel(1)
	deferredRan := 0
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(p *Proc) {
			defer func() { deferredRan++ }()
			p.Park("bystander")
		})
	}
	k.At(10, explodingCallback)

	var recovered any
	var stack string
	func() {
		defer func() {
			recovered = recover()
			stack = string(debug.Stack()) // the panicking frames are still below this one
		}()
		err := k.Run()
		t.Errorf("Run returned (%v); want the callback's panic", err)
	}()
	if recovered != "callback exploded" {
		t.Fatalf("recovered %#v, want the callback's own panic value", recovered)
	}
	if !strings.Contains(stack, "explodingCallback") {
		t.Errorf("the callback's frame is not on the panicking stack:\n%s", stack)
	}
	if deferredRan != 0 {
		t.Errorf("%d bystander process(es) were unwound by the callback's panic", deferredRan)
	}
	if k.failure != nil {
		t.Errorf("a callback's panic was recorded as a failure: %v", k.failure)
	}
	// The processes are still parked; Shutdown must be able to release them
	// (and only now do their defers run).
	k.Shutdown()
	if deferredRan != 2 {
		t.Errorf("Shutdown after a callback panic unwound %d of 2 processes", deferredRan)
	}
}

// TestCallbacksRunWithNoProcessRunning: every kind of callback — a timer set
// before Run, an After armed by a process — runs on the event loop with no
// process running, however many processes are live around it.
func TestCallbacksRunWithNoProcessRunning(t *testing.T) {
	k := NewKernel(1)
	ran := map[string]int{}
	callback := func(kind string) func() {
		return func() {
			ran[kind]++
			if r := k.running; r != nil {
				t.Errorf("running = %q inside %s callback, want nil", r.Name(), kind)
			}
		}
	}
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				k.After(5, callback("After"))
				p.Sleep(10)
				if k.running != p {
					t.Errorf("running != %q inside its own body", p.Name())
				}
			}
		})
	}
	for i := 0; i < 10; i++ {
		k.At(Time(5+10*i), callback("timer"))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		kind string
		n    int
	}{{"timer", 10}, {"After", 40}} {
		if ran[want.kind] != want.n {
			t.Errorf("%s callbacks ran %d times, want %d", want.kind, ran[want.kind], want.n)
		}
	}
}

// TestSelfUnparkFromOwnEvent: a process that parks and is unparked by a
// same-instant event it scheduled itself comes straight back.
func TestSelfUnparkFromOwnEvent(t *testing.T) {
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
	if rounds != 100 || k.Now() != 0 {
		t.Fatalf("rounds = %d at %v, want 100 at 0", rounds, k.Now())
	}
}

// TestPingPongAlternates: two processes unparking each other take strict
// turns — each wake resumes exactly the process it names, and control comes
// back to the loop between them.
func TestPingPongAlternates(t *testing.T) {
	const n = 500
	k := NewKernel(1)
	var turns []byte
	var pa, pb *Proc
	pa = k.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park("ping")
			turns = append(turns, 'a')
			pb.Unpark()
		}
	})
	pb = k.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			pa.Unpark()
			p.Park("pong")
			turns = append(turns, 'b')
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := strings.Repeat("ab", n); string(turns) != want {
		t.Fatalf("turns were not strictly alternating: %.40s…", turns)
	}
}

// TestLoopYieldsToScheduler: on one P, a goroutine made runnable beside a
// running kernel gets the P within yieldEvery events, long before the
// runtime's 10 ms forced preemption — coroutine switches never enter the
// scheduler, so without the loop's yield the collector's background workers
// would wait for that preemption.
func TestLoopYieldsToScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := NewKernel(1)
	var pa, pb *Proc
	pa = k.Spawn("ping", func(p *Proc) {
		for i := 0; i < yieldEvery; i++ {
			p.Park("ping")
			pb.Unpark()
		}
	})
	pb = k.Spawn("pong", func(p *Proc) {
		for i := 0; i < yieldEvery; i++ {
			pa.Unpark()
			p.Park("pong")
		}
	})
	var ran atomic.Bool
	go ran.Store(true)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatalf("a runnable goroutine never got the P in %d events", k.EventsProcessed())
	}
}

// doneRecorder is an observer that lists processes in the order they finish.
type doneRecorder struct {
	nopObserver
	done *[]string
}

func (r doneRecorder) ProcDone(_ Time, name string) { *r.done = append(*r.done, name) }

// TestShutdownEveryProcessState: Shutdown owes a not-started, a parked and a
// sleeping process the same thing — defers run, the observer hears it finish,
// the coroutine goes idle — and skips finished ones. With the idle
// coroutines released, not one goroutine is left over.
func TestShutdownEveryProcessState(t *testing.T) {
	ReleaseIdle()
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	var exited, unwound []string
	k.SetObserver(doneRecorder{done: &exited})
	body := func(block func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { unwound = append(unwound, p.Name()) }()
			block(p)
		}
	}
	k.Spawn("finished", body(func(p *Proc) {}))
	k.Spawn("parked", body(func(p *Proc) { p.Park("forever") }))
	for i := 0; i < 32; i++ {
		k.Spawn(fmt.Sprintf("sleeper%02d", i), body(func(p *Proc) {
			for {
				p.Sleep(10)
			}
		}))
	}
	if err := k.RunUntil(255); err != nil {
		t.Fatal(err)
	}
	// Spawned after the last RunUntil: its start event never fires.
	k.Spawn("not-started", body(func(p *Proc) { t.Error("a killed not-started process ran its body") }))
	if len(exited) != 1 || len(unwound) != 1 {
		t.Fatalf("before Shutdown: exited %v, unwound %v; want only \"finished\"", exited, unwound)
	}
	k.Shutdown()
	if len(exited) != 35 {
		t.Errorf("observer saw %d of 35 processes finish: %v", len(exited), exited)
	}
	if len(unwound) != 34 { // the not-started body has no defer to run
		t.Errorf("defers ran for %d of 34 started processes: %v", len(unwound), unwound)
	}
	if exited[len(exited)-1] != "not-started" {
		t.Errorf("last to finish was %q, want \"not-started\" (spawn order)", exited[len(exited)-1])
	}
	for _, p := range k.procs {
		if p.state != procDone {
			t.Errorf("%s still live after Shutdown", p.Name())
		}
	}
	ReleaseIdle()
	expectGoroutines(t, before)
}

// TestSpawnFromProcessBody: a coroutine may create coroutines. A child
// spawned mid-body starts only after its parent gives control up, at the
// same instant, and may itself spawn.
func TestSpawnFromProcessBody(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		k.Spawn("child", func(c *Proc) {
			order = append(order, fmt.Sprintf("child@%v", c.Now()))
			k.Spawn("grandchild", func(g *Proc) {
				g.Sleep(1)
				order = append(order, fmt.Sprintf("grandchild@%v", g.Now()))
			})
			c.Sleep(5)
			order = append(order, fmt.Sprintf("child-done@%v", c.Now()))
		})
		order = append(order, "parent-continues")
		p.Sleep(100)
		order = append(order, fmt.Sprintf("parent-done@%v", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, " ")
	want := fmt.Sprintf("parent-continues child@%v grandchild@%v child-done@%v parent-done@%v",
		Time(10), Time(11), Time(15), Time(110))
	if got != want {
		t.Fatalf("order = %s\n want   %s", got, want)
	}
}

// TestSpawnRunExitAllocCeiling pins what a process costs to create, run to
// its end and retire: the Proc, and nothing else. Its coroutine comes off the
// idle list and goes back on it, so a Spawn that built a fresh iter.Pull
// coroutine (13 allocations) shows up here, as does a second closure or
// channel per Spawn; a per-park allocation would show up in the alloc tests.
func TestSpawnRunExitAllocCeiling(t *testing.T) {
	k := NewKernel(1)
	body := func(p *Proc) { p.Sleep(1) }
	cycle := func() {
		k.Spawn("p", body)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ { // grow k.procs past what the measured runs append
		cycle()
	}
	k.procs = k.procs[:0]
	const ceiling = 1 // the Proc
	if avg := testing.AllocsPerRun(200, cycle); avg > ceiling {
		t.Fatalf("spawn-run-exit allocates %v/op, want <= %d", avg, ceiling)
	}
}

// idleCoroutines returns a copy of the idle list, most recently retired last.
func idleCoroutines() []*coroutine {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return append([]*coroutine(nil), idle.cos...)
}

// TestCoroutineOutlivesEveryEnd: however a process ends — its body returns or
// panics, or Shutdown kills it parked or before it started — it drops its
// coroutine and body, the coroutine goes idle, and the next Spawn, on another
// kernel, runs its body there: once, defers once, to a clean end.
func TestCoroutineOutlivesEveryEnd(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    func(p *Proc)
		end     func(k *Kernel) error
		wantErr string
		defers  int // how often the first body's defer runs
	}{
		{"returned", func(p *Proc) { p.Sleep(1) }, (*Kernel).Run, "", 1},
		{"panicked", func(p *Proc) { p.Sleep(1); panic("boom") }, (*Kernel).Run, `process "first" panicked: boom`, 1},
		{"killed parked", func(p *Proc) { p.Park("forever") }, func(k *Kernel) error {
			if err := k.RunUntil(10); err != nil {
				return err
			}
			k.Shutdown()
			return nil
		}, "", 1},
		{"killed not started", func(p *Proc) { t.Error("a killed not-started process ran its body") }, func(k *Kernel) error {
			k.Shutdown()
			return nil
		}, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ReleaseIdle()
			k := NewKernel(1)
			defers := 0
			first := k.Spawn("first", func(p *Proc) {
				defer func() { defers++ }()
				tc.body(p)
			})
			co := first.co
			err := tc.end(k)
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("first kernel: error = %v, want one containing %q", err, tc.wantErr)
			}
			if defers != tc.defers {
				t.Errorf("first body's defer ran %d times, want %d", defers, tc.defers)
			}
			if first.state != procDone || first.co != nil || first.body != nil {
				t.Errorf("first process: state %v, holds coroutine %v, body %v; want done, neither", first.state, first.co != nil, first.body != nil)
			}
			if got := idleCoroutines(); len(got) != 1 || got[0] != co || co.p != nil {
				t.Fatalf("idle list = %v, want just the first process's coroutine, holding no process", got)
			}

			k2 := NewKernel(2)
			ran, nextDefers := 0, 0
			next := k2.Spawn("next", func(p *Proc) {
				defer func() { nextDefers++ }()
				ran++
				p.Sleep(5)
			})
			if next.co != co {
				t.Fatal("the next Spawn built a coroutine instead of taking the idle one")
			}
			if err := k2.Run(); err != nil {
				t.Fatal(err)
			}
			if ran != 1 || nextDefers != 1 || k2.Now() != 5 {
				t.Errorf("next body ran %d times, deferred %d times, ended at %v; want once, once, 5", ran, nextDefers, k2.Now())
			}
			if got := idleCoroutines(); len(got) != 1 || got[0] != co {
				t.Errorf("after the next process the idle list holds %d coroutine(s), want the same one", len(got))
			}
		})
	}
	ReleaseIdle()
}

// TestIdleListCapped: more processes exiting than the idle list holds leave
// it full and stop the rest, so at most maxIdle goroutines outlive the
// kernel, and ReleaseIdle ends those.
func TestIdleListCapped(t *testing.T) {
	ReleaseIdle()
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	const n = maxIdle + 50
	for i := 0; i < n; i++ {
		k.Spawn("p", func(p *Proc) { p.Sleep(1) })
	}
	if err := k.RunUntil(0); err != nil { // every process started and asleep at once
		t.Fatal(err)
	}
	if live := runtime.NumGoroutine() - before; live < n {
		t.Fatalf("%d goroutines behind %d sleeping processes", live, n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(idleCoroutines()); got != maxIdle {
		t.Errorf("%d processes exited leaving %d coroutines idle, want %d", n, got, maxIdle)
	}
	expectGoroutines(t, before+maxIdle)
	ReleaseIdle()
	expectGoroutines(t, before)
}

// TestKernelsTradeCoroutines: coroutines retired by a kernel on one goroutine
// run the processes of a kernel on another. First in turns, which pins that
// they are traded; then both at once (CI runs it under -race), where the two
// never need more coroutines than they have processes live together.
func TestKernelsTradeCoroutines(t *testing.T) {
	const procs = 8
	ReleaseIdle()
	// cell runs one kernel of procs processes to its end and reports the
	// coroutines they ran on.
	cell := func(seed int64) ([]*coroutine, error) {
		k := NewKernel(seed)
		var used []*coroutine
		for i := 0; i < procs; i++ {
			p := k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(1 + p.K().Rand().Intn(5)))
				}
			})
			used = append(used, p.co)
		}
		return used, k.Run()
	}
	onOtherGoroutine := func(seed int64) (used []*coroutine, err error) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			used, err = cell(seed)
		}()
		<-done
		return used, err
	}

	built, err := cell(1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 2; round <= 5; round++ {
		run := cell
		if round%2 == 0 {
			run = onOtherGoroutine
		}
		used, err := run(int64(round))
		if err != nil {
			t.Fatal(err)
		}
		for _, co := range used {
			if !slices.Contains(built, co) {
				t.Fatalf("round %d ran a process on a new coroutine instead of the %d idle ones", round, procs)
			}
		}
	}

	used := make([][]*coroutine, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range used {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50 && errs[g] == nil; i++ {
				var cos []*coroutine
				cos, errs[g] = cell(int64(100*g + i))
				used[g] = append(used[g], cos...)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	distinct := map[*coroutine]bool{}
	for _, cos := range used {
		for _, co := range cos {
			distinct[co] = true
		}
	}
	if len(distinct) > 2*procs {
		t.Errorf("two kernels of %d processes each ran on %d coroutines, want at most %d", procs, len(distinct), 2*procs)
	}
	ReleaseIdle()
}
