package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// tieredCluster is smallCluster with a storage hierarchy installed.
func tieredCluster(n int, mode tier.Mode, replicas int) ClusterConfig {
	cfg := smallCluster(n)
	cfg.Tiers.Mode = mode
	cfg.Tiers.Replicas = replicas
	return cfg
}

// TestScenarioMemLossRecoversFromRAM is the tentpole acceptance path: a
// memory-loss fault kills f = k consecutive nodes, the placement ring keeps
// one intact partner copy of every image, and the whole restart reads from
// RAM replicas without touching central storage.
func TestScenarioMemLossRecoversFromRAM(t *testing.T) {
	const n, k = 4, 2
	cfg := tieredCluster(n, tier.ModeHierarchy, k)
	w := scenarioRing(n)
	scn := mustParse(t, "memloss@2s:count=2;seed=5")
	res, err := RunScenario(cfg, w, scn, 500*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if res.RecoveredRAM != n || res.RecoveredBurst != 0 || res.RecoveredCentral != 0 {
		t.Fatalf("recovered ram=%d burst=%d central=%d; want all %d from RAM",
			res.RecoveredRAM, res.RecoveredBurst, res.RecoveredCentral, n)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d after RAM recovery, want %d", me, inst.Sums[me], want)
		}
	}
}

// TestScenarioMemLossDefeatsRAMFallsThrough: losing more consecutive nodes
// than the replica count destroys some rank's whole RAM copy set; that rank
// must recover from a lower tier while the others still read partner copies.
func TestScenarioMemLossDefeatsRAMFallsThrough(t *testing.T) {
	const n = 4
	cfg := tieredCluster(n, tier.ModeRAM, 1)
	w := scenarioRing(n)
	// Nodes 0 and 1 lost: rank 0's copies lived exactly there (self + ring
	// partner), so rank 0 falls through to the drained central copy.
	scn := mustParse(t, "memloss@2s:count=2;seed=5")
	res, err := RunScenario(cfg, w, scn, 500*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if res.RecoveredCentral == 0 {
		t.Fatalf("recovered ram=%d burst=%d central=%d; want at least one central fallback",
			res.RecoveredRAM, res.RecoveredBurst, res.RecoveredCentral)
	}
	if res.RecoveredRAM+res.RecoveredBurst+res.RecoveredCentral != n {
		t.Fatalf("recovered ram=%d burst=%d central=%d; want %d total",
			res.RecoveredRAM, res.RecoveredBurst, res.RecoveredCentral, n)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d after fallback recovery, want %d", me, inst.Sums[me], want)
		}
	}
}

// TestScenarioBBOutageAbortsAndRetries: an availability window on the burst
// buffer aborts in-flight ack writes exactly like a central outage; the cycle
// retries until the buffer returns and the job still finishes correctly.
func TestScenarioBBOutageAbortsAndRetries(t *testing.T) {
	const n = 4
	cfg := tieredCluster(n, tier.ModeBurst, 0)
	w := scenarioRing(n)
	mem := &obs.MemorySink{}
	res, err := RunScenario(cfg, w, mustParse(t, "bboutage@400ms+600ms"),
		500*sim.Millisecond, obs.NewBus(mem))
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleAborts == 0 {
		t.Fatal("burst outage over the write caused no cycle abort")
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d, want 0 (outages abort cycles, not jobs)", res.Failures)
	}
	var outageSeen bool
	for _, e := range mem.ByLayer(obs.LayerFault) {
		if e.What == obs.KindBBOutage {
			outageSeen = true
		}
	}
	if !outageSeen {
		t.Fatal("no bb-outage event on the fault track")
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d after outage run, want %d", me, inst.Sums[me], want)
		}
	}
}

// TestScenarioBBOutageRequiresBurstTier: a bboutage scenario on a cluster
// without a burst tier would silently inject nothing, so the runner rejects
// it up front.
func TestScenarioBBOutageRequiresBurstTier(t *testing.T) {
	for _, mode := range []tier.Mode{"", tier.ModeRAM} {
		cfg := smallCluster(4)
		cfg.Tiers.Mode = mode
		_, err := RunScenario(cfg, scenarioRing(4), mustParse(t, "bboutage@1s+1s"),
			500*sim.Millisecond, nil)
		if err == nil {
			t.Errorf("mode %q accepted a burst-buffer outage without a burst tier", mode)
		}
	}
}

// TestScenarioAbortUnderSurvivingTierWrite is the abort-race regression: a
// long central outage fills the burst buffer (nothing drains, so nothing is
// evictable), one member's write spills through to central and fails, and
// the cycle aborts while another member's burst write is still in flight.
// That write used to land after the retried cycle had begun and commit the
// discarded epoch's snapshot into it, parking the rank forever ("sim:
// deadlock"). The run must end in the coordinator's give-up diagnostic or
// complete. (That the cancelled write leaves no reservation or residency
// behind is pinned in storage/tier: TestCancelledAckWriteLeavesNothingBehind.)
func TestScenarioAbortUnderSurvivingTierWrite(t *testing.T) {
	const n = 8
	for _, mode := range []tier.Mode{tier.ModeBurst, tier.ModeHierarchy} {
		cfg := PaperCluster(n)
		cfg.CR.GroupSize = 2
		cfg.Tiers.Mode = mode
		w := workload.Ring{N: n, Iters: 200, Chunk: 50 * sim.Millisecond, FootprintMB: 180}
		_, err := RunScenario(cfg, w, mustParse(t, "outage@2s+30s"), 2*sim.Second, nil)
		switch {
		case err == nil:
		case strings.Contains(err.Error(), "deadlock"):
			t.Errorf("%s: %v", mode, err)
		case !strings.Contains(err.Error(), "consecutive times; giving up"):
			t.Errorf("%s: unexpected failure: %v", mode, err)
		}
	}
}

// TestScenarioLocalStagingRecovery pins Section 2.1's argument on the local
// tier: a process crash restarts every rank from its own disk, a node loss
// takes the node's staged copies with it and the job falls back to what had
// already drained to central.
func TestScenarioLocalStagingRecovery(t *testing.T) {
	const n = 4
	w := scenarioRing(n)
	run := func(spec string) AvailabilityResult {
		t.Helper()
		res, err := RunScenario(tieredCluster(n, tier.ModeLocal, 0), w, mustParse(t, spec), 500*sim.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 1 {
			t.Fatalf("%s: failures = %d, want 1", spec, res.Failures)
		}
		inst := res.FinalInst.(*workload.RingInstance)
		for me := 0; me < n; me++ {
			if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
				t.Fatalf("%s: rank %d: sum %d after recovery, want %d", spec, me, inst.Sums[me], want)
			}
		}
		return res
	}
	if res := run("crash@2s"); res.RecoveredLocal != n {
		t.Errorf("process crash: recovered local=%d central=%d, want all %d from local disk",
			res.RecoveredLocal, res.RecoveredCentral, n)
	}
	if res := run("memloss@2s:rank=1"); res.RecoveredLocal+res.RecoveredCentral != n || res.RecoveredCentral == 0 {
		t.Errorf("node loss: recovered local=%d central=%d, want %d in total with the lost node's rank from central",
			res.RecoveredLocal, res.RecoveredCentral, n)
	}
}

// TestSpilledCheckpointHasNoVulnerabilityWindow: a one-byte burst buffer
// spills every write through to central storage, so each image is cold
// before the cycle completes. The window after the processes resumed is
// zero, never negative.
func TestSpilledCheckpointHasNoVulnerabilityWindow(t *testing.T) {
	cfg := smallCluster(4)
	cfg.Tiers = tier.Config{Mode: tier.ModeBurst, BurstCapacity: 1}
	w := workload.CommGroups{N: 4, CommGroupSize: 2, Iters: 60,
		Chunk: 50 * sim.Millisecond, FootprintMB: 20}
	res, err := MeasureObserved(cfg, w, sim.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Report; rep.DrainedAt != 0 || rep.VulnerabilityWindow() != 0 {
		t.Errorf("DrainedAt %v, DoneAt %v, window %v; want no window once every image is cold at commit",
			rep.DrainedAt, rep.DoneAt, rep.VulnerabilityWindow())
	}
}

// TestValidateRejectsTiersWithUncoord: the hierarchy's commit gate needs a
// global epoch commit, which the uncoordinated protocol does not have.
func TestValidateRejectsTiersWithUncoord(t *testing.T) {
	cfg := tieredCluster(4, tier.ModeRAM, 1)
	cfg.CR.Protocol = protocol.Uncoordinated
	cfg.MPI.LogMessages = true
	if err := cfg.Validate(); err == nil {
		t.Error("tiers + uncoordinated protocol accepted")
	}
	if err := tieredCluster(3, tier.ModeRAM, 3).Validate(); err == nil {
		t.Error("replicas+1 > n accepted")
	}
}

// TestScenarioTieredTraceDeterministic extends the byte-identical trace
// contract to tiered runs: drains, spills, and memory-loss faults land at
// identical instants on every replay.
func TestScenarioTieredTraceDeterministic(t *testing.T) {
	run := func() []byte {
		cfg := tieredCluster(4, tier.ModeHierarchy, 2)
		var jb bytes.Buffer
		js := obs.NewJSONL(&jb)
		if _, err := RunScenario(cfg, scenarioRing(4),
			mustParse(t, "memloss@2s:count=2;seed=5"), 500*sim.Millisecond, obs.NewBus(js)); err != nil {
			t.Fatal(err)
		}
		if js.Err() != nil {
			t.Fatal(js.Err())
		}
		return jb.Bytes()
	}
	j1, j2 := run(), run()
	if len(j1) == 0 {
		t.Fatal("empty tiered trace")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("tiered JSONL trace differs between identical runs")
	}
	if !bytes.Contains(j1, []byte("tier-write")) || !bytes.Contains(j1, []byte("tier-drain")) ||
		!bytes.Contains(j1, []byte("memloss")) || !bytes.Contains(j1, []byte("tier-recover")) {
		t.Error("tiered trace is missing tier or memloss events")
	}
}

// Property: restart equivalence holds under the storage hierarchy too —
// whatever blocking protocol, tier mode, and crash instant are drawn, the
// rerun from the tier-resolved recovery line reproduces the failure-free
// results bit for bit.
func TestQuickScenarioCrashEquivalenceTiered(t *testing.T) {
	modes := []tier.Mode{tier.ModeBurst, tier.ModeRAM, tier.ModeHierarchy, tier.ModeLocal}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 3
		mode := modes[rng.Intn(len(modes))]
		replicas := 0
		if mode.HasRAM() {
			replicas = rng.Intn(2) + 1 // k in {1, 2}; n >= 3 keeps k+1 <= n
		}
		cfg := tieredCluster(n, mode, replicas)
		cfg.Seed = seed
		cfg.CR.DefaultFootprint = 5 << 20
		// The hierarchy requires a blocking protocol; draw between them.
		if rng.Intn(2) == 0 {
			cfg.CR.Protocol = protocol.Group
			cfg.CR.GroupSize = rng.Intn(n + 1)
		} else {
			cfg.CR.Protocol = protocol.WholeJob
		}
		w := workload.Ring{N: n, Iters: rng.Intn(60) + 100,
			Chunk: 20 * sim.Millisecond, FootprintMB: 5}
		var spec string
		if (mode.HasRAM() || mode == tier.ModeLocal) && rng.Intn(2) == 0 {
			// A memory loss of 1..k+1 consecutive nodes: sometimes survivable
			// in RAM, sometimes forcing a lower-tier or older-epoch restart
			// (always, for the unreplicated local disk).
			spec = fmt.Sprintf("memloss@%dms:rank=%d,count=%d",
				rng.Intn(1700)+300, rng.Intn(n), rng.Intn(replicas+1)+1)
		} else {
			spec = fmt.Sprintf("crash@%dms", rng.Intn(1700)+300)
		}
		interval := sim.Time(rng.Intn(300)+400) * sim.Millisecond
		res, err := RunScenario(cfg, w, mustParse(t, spec), interval, nil)
		if err != nil {
			t.Logf("seed %d (%s %s): %v", seed, mode, spec, err)
			return false
		}
		if res.Failures != 1 {
			t.Logf("seed %d (%s %s): failures = %d, want 1", seed, mode, spec, res.Failures)
			return false
		}
		inst := res.FinalInst.(*workload.RingInstance)
		for me := 0; me < n; me++ {
			if inst.Sums[me] != workload.ExpectedRingSum(n, w.Iters, me) {
				t.Logf("seed %d (%s %s): rank %d mismatch", seed, mode, spec, me)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
