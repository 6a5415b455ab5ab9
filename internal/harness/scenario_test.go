package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// scenarioRing is the workload used by the scenario tests: ~3s of compute
// with cheap snapshots, so several epochs fit.
func scenarioRing(n int) workload.Ring {
	return workload.Ring{N: n, Iters: 150, Chunk: 20 * sim.Millisecond, FootprintMB: 5}
}

func mustParse(t *testing.T, spec string) fault.Scenario {
	t.Helper()
	scn, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestScenarioAbortRetryCrashRestart is the acceptance path end to end: a
// storage outage lands on epoch 1's Local Checkpointing (write) phase — the
// cycle aborts and retries until the epoch commits — then an injected crash
// kills a rank mid-write of epoch 2, the job restarts from the committed
// epoch, and the final results are bit-identical to a failure-free run.
func TestScenarioAbortRetryCrashRestart(t *testing.T) {
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.DefaultFootprint = 5 << 20
	w := scenarioRing(n)
	scn := mustParse(t, "outage@650ms+200ms;crash:phase=write,epoch=2,rank=1;seed=3")
	mem := &obs.MemorySink{}
	res, err := RunScenario(cfg, w, scn, 600*sim.Millisecond, obs.NewBus(mem))
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleAborts == 0 {
		t.Fatal("outage over the write phase caused no cycle abort")
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want exactly 1 (the injected crash)", res.Failures)
	}
	if res.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want >= 2 (epoch 1 before the crash, more after restart)", res.Checkpoints)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d after faulted run, failure-free expects %d", me, inst.Sums[me], want)
		}
	}
	// The injections themselves appear on the fault track.
	var crashSeen, outageSeen bool
	for _, e := range mem.ByLayer(obs.LayerFault) {
		switch e.What {
		case obs.KindCrash:
			crashSeen = true
		case obs.KindOutage:
			outageSeen = true
		}
	}
	if !crashSeen || !outageSeen {
		t.Fatalf("fault track incomplete: crash=%v outage=%v", crashSeen, outageSeen)
	}
}

// TestScenarioCorruptionFallsBack: epoch 2's archive is corrupted after its
// commit; the post-crash restart must skip it, fall back to epoch 1, and
// still reproduce the failure-free results exactly.
func TestScenarioCorruptionFallsBack(t *testing.T) {
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.DefaultFootprint = 5 << 20
	w := scenarioRing(n)
	scn := mustParse(t, "corrupt:epoch=2,rank=1;crash@2s")
	res, err := RunScenario(cfg, w, scn, 500*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if res.CorruptSkipped == 0 {
		t.Fatal("restart did not skip the corrupted epoch")
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d after corrupt-fallback restart, want %d", me, inst.Sums[me], want)
		}
	}
}

// TestScenarioFaultAfterFinishDoesNotFire: a timed crash or node loss
// scheduled past the job's end has nothing left to kill — no failure is
// counted, and the wall time is the failure-free one, not the fault's.
func TestScenarioFaultAfterFinishDoesNotFire(t *testing.T) {
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.DefaultFootprint = 5 << 20
	w := scenarioRing(n)
	clean, err := RunScenario(cfg, w, fault.Scenario{}, 600*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"crash@100s", "memloss@100s:rank=1", "crash@9223372036s"} {
		res, err := RunScenario(cfg, w, mustParse(t, spec), 600*sim.Millisecond, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if res.Failures != 0 || res.Wall != clean.Wall {
			t.Errorf("%s: failures = %d, wall = %v; want 0 and the failure-free %v",
				spec, res.Failures, res.Wall, clean.Wall)
		}
	}
}

// scenarioTrace runs one faulted scenario with JSONL and Chrome sinks and
// returns both serializations.
func scenarioTrace(t *testing.T) (jsonl, chrome []byte) {
	t.Helper()
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.DefaultFootprint = 5 << 20
	w := scenarioRing(n)
	scn := mustParse(t, "cmdrop:type=REQ,count=2;outage@650ms+200ms;crash@2s;seed=9")
	var jb bytes.Buffer
	js := obs.NewJSONL(&jb)
	ch := obs.NewChrome()
	if _, err := RunScenario(cfg, w, scn, 600*sim.Millisecond, obs.NewBus(js, ch)); err != nil {
		t.Fatal(err)
	}
	if js.Err() != nil {
		t.Fatal(js.Err())
	}
	var cb bytes.Buffer
	if err := ch.Render(&cb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestScenarioTraceDeterministic: the same scenario and seed export
// byte-identical JSONL and Chrome traces on every run — the package's core
// determinism contract extended to faulted runs.
func TestScenarioTraceDeterministic(t *testing.T) {
	j1, c1 := scenarioTrace(t)
	j2, c2 := scenarioTrace(t)
	if len(j1) == 0 || len(c1) == 0 {
		t.Fatalf("empty export: jsonl=%d chrome=%d bytes", len(j1), len(c1))
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL trace differs between identical faulted runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("Chrome trace differs between identical faulted runs")
	}
	if !bytes.Contains(c1, []byte("faults")) {
		t.Error("Chrome trace has no fault track")
	}
}

// Property: restart equivalence survives crashes at random times and at
// random protocol phases — whatever instant or phase the fault subsystem
// kills the job in, the rerun from the latest verified epoch reproduces the
// failure-free results bit for bit.
func TestQuickScenarioCrashEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		cfg := smallCluster(n)
		cfg.Seed = seed
		cfg.CR.DefaultFootprint = 5 << 20
		// Draw a protocol from the whole zoo; the phase vocabulary for
		// phase-targeted crashes must come from the drawn protocol.
		kind := protocol.Kinds()[rng.Intn(len(protocol.Kinds()))]
		cfg.CR.Protocol = kind
		proto, err := protocol.ForKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		phases := proto.Phases()
		switch kind {
		case protocol.Group:
			cfg.CR.GroupSize = rng.Intn(n + 1)
		case protocol.WholeJob:
			cfg.CR.GroupSize = 0
		case protocol.Uncoordinated:
			cfg.CR.GroupSize = 0
			cfg.CR.HelperEnabled = false
			cfg.MPI.LogMessages = true
		}
		w := workload.Ring{N: n, Iters: rng.Intn(60) + 100,
			Chunk: 20 * sim.Millisecond, FootprintMB: 5}
		var spec string
		if rng.Intn(2) == 0 {
			// Timed crash, anywhere from mid-first-interval to near the end.
			spec = fmt.Sprintf("crash@%dms", rng.Intn(1700)+300)
		} else {
			// Phase-targeted crash: any protocol phase of an early epoch,
			// on any or one specific rank.
			spec = fmt.Sprintf("crash:phase=%s,epoch=%d", phases[rng.Intn(len(phases))], rng.Intn(2)+1)
			if rng.Intn(2) == 0 {
				spec += fmt.Sprintf(",rank=%d", rng.Intn(n))
			}
		}
		interval := sim.Time(rng.Intn(300)+400) * sim.Millisecond
		res, err := RunScenario(cfg, w, mustParse(t, spec), interval, nil)
		if err != nil {
			t.Logf("seed %d (%s %s): %v", seed, kind, spec, err)
			return false
		}
		if res.Failures != 1 {
			t.Logf("seed %d (%s %s): failures = %d, want 1", seed, kind, spec, res.Failures)
			return false
		}
		inst := res.FinalInst.(*workload.RingInstance)
		for me := 0; me < n; me++ {
			if inst.Sums[me] != workload.ExpectedRingSum(n, w.Iters, me) {
				t.Logf("seed %d (%s %s): rank %d mismatch", seed, kind, spec, me)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
