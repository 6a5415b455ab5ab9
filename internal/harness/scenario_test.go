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
	"gbcr/internal/workload/motif"
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

// TestRestartEquivalence is the paper's consistency claim end to end: the
// whole job is lost to crash@T after the first commit, every rank restarts
// from the group-staggered recovery line, and the results equal the
// failure-free run's. A crash before the first checkpoint restarts from
// scratch and replays the failure-free run after the lost T exactly.
func TestRestartEquivalence(t *testing.T) {
	ring := workload.Ring{N: 6, Iters: 60, Chunk: 50 * sim.Millisecond, FootprintMB: 10}
	ringWant := make([]int64, ring.N)
	for me := range ringWant {
		ringWant[me] = workload.ExpectedRingSum(ring.N, ring.Iters, me)
	}
	ringSums := func(i workload.Instance) string { return fmt.Sprint(i.(*workload.RingInstance).Sums) }
	mine := motif.Mine{Graphs: 32, Vertices: 12, Degree: 3, Labels: 4,
		MinSup: 10, MaxLen: 3, Seed: 5, LevelCompute: 400 * sim.Millisecond}
	type row struct {
		name     string
		n, group int
		w        workload.Restartable
		results  func(workload.Instance) string
		want     string // pins the failure-free results too when set
		interval sim.Time
		crash    string
		scratch  bool // the crash lands before the first checkpoint
	}
	var rows []row
	for _, gs := range []int{0, 1, 2, 3} {
		rows = append(rows, row{fmt.Sprintf("ring group=%d", gs), ring.N, gs, ring, ringSums, fmt.Sprint(ringWant),
			800 * sim.Millisecond, "crash@1700ms", false})
	}
	rows = append(rows,
		row{"allgather", 4, 2, workload.AllgatherLoop{N: 4, Iters: 40, Chunk: 50 * sim.Millisecond, FootprintMB: 10},
			func(i workload.Instance) string { return fmt.Sprint(i.(*workload.AllgatherInstance).Hashes) }, "",
			700 * sim.Millisecond, "crash@1500ms", false},
		row{"stencil", 5, 2, workload.Stencil{N: 5, Cells: 8, Iters: 50, Chunk: 40 * sim.Millisecond, FootprintMB: 8},
			func(i workload.Instance) string { return fmt.Sprint(i.(*workload.StencilInstance).Checksums) }, "",
			600 * sim.Millisecond, "crash@1400ms", false},
		row{"motif miner", 4, 2, mine,
			func(i workload.Instance) string { return fmt.Sprint(i.(*motif.MineInstance).Frequent) }, fmt.Sprint(mine.MineSerial()),
			600 * sim.Millisecond, "crash@1100ms", false},
		row{"crash before first checkpoint", ring.N, 2, ring, ringSums, fmt.Sprint(ringWant),
			sim.Second, "crash@500ms", true},
	)
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCluster(tc.n)
			cfg.CR.GroupSize = tc.group
			clean, err := RunScenario(cfg, tc.w, fault.Scenario{}, tc.interval, nil)
			if err != nil {
				t.Fatal(err)
			}
			scn := mustParse(t, tc.crash)
			res, err := RunScenario(cfg, tc.w, scn, tc.interval, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.crash, err)
			}
			if res.Failures != 1 {
				t.Fatalf("%s: failures = %d, want 1", tc.crash, res.Failures)
			}
			got, ref := tc.results(res.FinalInst), tc.results(clean.FinalInst)
			if got != ref || tc.want != "" && ref != tc.want {
				t.Fatalf("%s: restarted results %s, failure-free %s, want %s (recovery line inconsistent)",
					tc.crash, got, ref, tc.want)
			}
			// From scratch the lost T is pure waste; from a checkpoint some
			// of it is kept.
			at := scn.Faults[0].At
			if lost := res.Wall - clean.Wall; tc.scratch && lost != at || !tc.scratch && lost >= at {
				t.Fatalf("%s: wall %v against failure-free %v: lost %v (restart from scratch: %v)",
					tc.crash, res.Wall, clean.Wall, lost, tc.scratch)
			}
		})
	}
}

// TestScenarioCorruptionFallsBack: restart takes the newest committed epoch,
// and when epoch 2's archive is corrupted after its commit it must skip it,
// fall back to epoch 1 — losing more work — and still reproduce the
// failure-free results exactly.
func TestScenarioCorruptionFallsBack(t *testing.T) {
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.DefaultFootprint = 5 << 20
	w := scenarioRing(n)
	run := func(spec string, skipped int) AvailabilityResult {
		res, err := RunScenario(cfg, w, mustParse(t, spec), 500*sim.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 1 || res.CorruptSkipped != skipped {
			t.Fatalf("%s: failures = %d, corrupt skipped = %d; want 1 and %d", spec, res.Failures, res.CorruptSkipped, skipped)
		}
		inst := res.FinalInst.(*workload.RingInstance)
		for me := 0; me < n; me++ {
			if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
				t.Fatalf("%s: rank %d: sum %d after restart, want %d", spec, me, inst.Sums[me], want)
			}
		}
		return res
	}
	newest := run("crash@2s", 0)
	fallback := run("corrupt:epoch=2,rank=1;crash@2s", 1)
	if newest.Wall >= fallback.Wall {
		t.Fatalf("restart from the newest epoch took %v, from the older one %v", newest.Wall, fallback.Wall)
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
// random protocol phases, under random protocols, group sizes, helper
// settings, footprints and compute chunks — whatever instant or phase the
// fault subsystem kills the job in, the rerun from the latest verified epoch reproduces the
// failure-free results bit for bit.
func TestQuickScenarioCrashEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		cfg := smallCluster(n)
		cfg.Seed = seed
		cfg.CR.HelperEnabled = rng.Intn(3) != 0
		cfg.CR.DefaultFootprint = int64(rng.Intn(15)+1) << 20
		// Draw a protocol from the whole zoo; the phase vocabulary for
		// phase-targeted crashes must come from the drawn protocol.
		kind := protocol.Kinds()[rng.Intn(len(protocol.Kinds()))]
		cfg.CR.Protocol = kind
		phases := kind.Phases()
		switch kind {
		case protocol.Group:
			cfg.CR.GroupSize = rng.Intn(n + 1)
		case protocol.WholeJob:
			cfg.CR.GroupSize = 0
		case protocol.Uncoordinated:
			cfg.CR.GroupSize = 0
			cfg.MPI.LogMessages = true
		}
		w := workload.Ring{N: n, Iters: rng.Intn(60) + 100,
			Chunk: sim.Time(rng.Intn(40)+20) * sim.Millisecond, FootprintMB: 5}
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
