package harness

import (
	"bytes"
	"testing"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// protocolCluster configures a small cluster for an explicit protocol kind.
// The uncoordinated protocol needs sender-based logging and forbids partial
// groups; whole-job blocking forbids them too.
func protocolCluster(n int, kind protocol.Kind) ClusterConfig {
	cfg := smallCluster(n)
	cfg.CR.Protocol = kind
	switch kind {
	case protocol.Group:
		cfg.CR.GroupSize = 2
	case protocol.WholeJob:
		cfg.CR.GroupSize = 0
	case protocol.Uncoordinated:
		cfg.CR.GroupSize = 0
		cfg.MPI.LogMessages = true
	}
	cfg.CR.DefaultFootprint = 5 << 20
	return cfg
}

// TestScenarioWholeJobCrashEquivalence: the explicit whole-job protocol
// survives a mid-run crash and reproduces the failure-free results — the
// ICPP'06 baseline run through the same restart seam as the group protocol.
func TestScenarioWholeJobCrashEquivalence(t *testing.T) {
	const n = 4
	cfg := protocolCluster(n, protocol.WholeJob)
	w := scenarioRing(n)
	scn := mustParse(t, "crash:phase=write,epoch=2")
	res, err := RunScenario(cfg, w, scn, 600*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d, want %d", me, inst.Sums[me], want)
		}
	}
}

// TestScenarioUncoordCrashEquivalence is the first end-to-end exercise of the
// uncoordinated protocol's whole machinery: independent per-rank checkpoints,
// sender-based message logging, a crash, a per-rank recovery line, and log
// replay on restart — all reproducing the failure-free results exactly.
func TestScenarioUncoordCrashEquivalence(t *testing.T) {
	const n = 4
	cfg := protocolCluster(n, protocol.Uncoordinated)
	w := scenarioRing(n)
	scn := mustParse(t, "crash@2s")
	res, err := RunScenario(cfg, w, scn, 500*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if res.Checkpoints == 0 {
		t.Fatal("no uncoordinated checkpoint cycle completed before the crash")
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d, want %d", me, inst.Sums[me], want)
		}
	}
}

// skewedRing wraps Ring with per-rank snapshot footprints that grow with the
// rank number. Uniform footprints under fair-share storage make every rank's
// write finish at the same instant, so a crash always yields a recovery line
// with one epoch everywhere; skewing the footprints staggers durability and
// opens a window where a crash leaves some ranks durable at the new epoch and
// the rest behind it.
type skewedRing struct{ workload.Ring }

func (w skewedRing) Launch(j *mpi.Job) (workload.Instance, error) { return w.LaunchFrom(j, nil) }

func (w skewedRing) LaunchFrom(j *mpi.Job, states [][]byte) (workload.Instance, error) {
	inst, err := w.Ring.LaunchFrom(j, states)
	if err != nil {
		return nil, err
	}
	return skewedInstance{inst.(*workload.RingInstance)}, nil
}

type skewedInstance struct{ *workload.RingInstance }

func (s skewedInstance) Footprint(rank int) int64 { return int64(rank*15+5) << 20 }

// TestScenarioUncoordMixedEpochRestart crashes the job while the slower ranks
// are still inside their local writes: the fast rank is already durable at the
// new epoch while the others' newest durable snapshots are older, so the
// recovery line mixes epochs and the restart leans on log replay plus
// duplicate discard to reconcile. The final results must still match the
// failure-free run.
func TestScenarioUncoordMixedEpochRestart(t *testing.T) {
	const n = 4
	const iters = 60
	cfg := protocolCluster(n, protocol.Uncoordinated)
	w := skewedRing{workload.Ring{N: n, Iters: iters, Chunk: 20 * sim.Millisecond, FootprintMB: 5}}
	// The first cycle's request lands at 500ms; rank 0's 5MB write commits
	// quickly while ranks 1-3 (20/35/50MB) are still writing at 900ms.
	scn := mustParse(t, "crash@900ms")
	res, err := RunScenario(cfg, w, scn, 500*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if res.Replayed == 0 {
		t.Fatal("restart replayed no logged messages; the recovery line was not a real mixed-epoch exercise")
	}
	inst := res.FinalInst.(skewedInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d, want %d", me, inst.Sums[me], want)
		}
	}
}

// TestScenarioUncoordCrashInResume regresses a livelock: a crash in the
// resume phase leaves the crashed rank durable one epoch ahead of its peers,
// so on restart the behind ranks replay with the ahead rank's logged sends
// while the ahead rank blocks in Sendrecv until they catch up. If the
// checkpoint poll ran a collective agreement, the replaying ranks would
// consume the ahead rank's *pre-crash* agreement contributions from the log,
// see request counters the restarted coordinator never issued, and stall
// forever waiting for a request that cannot arrive while the ahead rank
// blocks behind their replay. The uncoordinated poll therefore serves
// locally, with no agreement on the replayable message path.
func TestScenarioUncoordCrashInResume(t *testing.T) {
	const n = 4
	const iters = 110
	cfg := protocolCluster(n, protocol.Uncoordinated)
	cfg.Seed = 37
	w := workload.Ring{N: n, Iters: iters, Chunk: 20 * sim.Millisecond, FootprintMB: 5}
	scn := mustParse(t, "crash:phase=resume,epoch=2")
	res, err := RunScenario(cfg, w, scn, 670*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d, want %d", me, inst.Sums[me], want)
		}
	}
}

// TestScenarioUncoordOutageRetriesLocally: a storage outage over the write
// phase makes uncoordinated ranks retry locally (there is no cycle-wide
// abort), so CycleAborts stays zero and the job still finishes correctly.
func TestScenarioUncoordOutageRetriesLocally(t *testing.T) {
	const n = 4
	cfg := protocolCluster(n, protocol.Uncoordinated)
	w := scenarioRing(n)
	scn := mustParse(t, "outage@650ms+200ms")
	res, err := RunScenario(cfg, w, scn, 600*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleAborts != 0 {
		t.Fatalf("cycle aborts = %d, want 0 (uncoordinated writes retry locally)", res.CycleAborts)
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d, want 0", res.Failures)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, w.Iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d, want %d", me, inst.Sums[me], want)
		}
	}
}

// protocolTrace runs one faulted scenario under the given protocol and
// returns its JSONL export.
func protocolTrace(t *testing.T, kind protocol.Kind) []byte {
	t.Helper()
	const n = 4
	cfg := protocolCluster(n, kind)
	w := scenarioRing(n)
	spec := "crash@2s;seed=11"
	if kind != protocol.Uncoordinated {
		spec = "crash:phase=write,epoch=2;seed=11"
	}
	var buf bytes.Buffer
	js := obs.NewJSONL(&buf)
	if _, err := RunScenario(cfg, w, mustParse(t, spec), 600*sim.Millisecond, obs.NewBus(js)); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	if js.Err() != nil {
		t.Fatalf("%s: %v", kind, js.Err())
	}
	return buf.Bytes()
}

// TestCrossProtocolTraceDeterminism extends the determinism contract to every
// protocol in the zoo: under each kind, the same configuration, scenario, and
// seed export byte-identical traces on repeated runs — and different kinds
// produce different traces (they are genuinely distinct coordination
// machines, not relabelings).
func TestCrossProtocolTraceDeterminism(t *testing.T) {
	traces := map[protocol.Kind][]byte{}
	for _, kind := range protocol.Kinds() {
		a := protocolTrace(t, kind)
		b := protocolTrace(t, kind)
		if len(a) == 0 {
			t.Fatalf("%s: empty trace", kind)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: trace differs between identical runs", kind)
		}
		traces[kind] = a
	}
	if bytes.Equal(traces[protocol.Group], traces[protocol.WholeJob]) {
		t.Error("group and whole-job traces are identical; expected distinct coordination")
	}
	if bytes.Equal(traces[protocol.WholeJob], traces[protocol.Uncoordinated]) {
		t.Error("whole-job and uncoordinated traces are identical; expected distinct coordination")
	}
}

// TestScenarioPhaseOutsideProtocolRejected: a crash naming a phase the active
// protocol never enters is a configuration error, not a fault that silently
// never fires.
func TestScenarioPhaseOutsideProtocolRejected(t *testing.T) {
	const n = 4
	cfg := protocolCluster(n, protocol.Uncoordinated)
	w := scenarioRing(n)
	scn := mustParse(t, "crash:phase=sync,epoch=1")
	if _, err := RunScenario(cfg, w, scn, 500*sim.Millisecond, nil); err == nil {
		t.Fatal("crash:phase=sync accepted under the uncoordinated protocol")
	}
}

// TestValidateRejectsUncoordWithoutLogging: the uncoordinated protocol is
// only consistent with sender-based logging; configuring it without
// LogMessages must fail validation up front.
func TestValidateRejectsUncoordWithoutLogging(t *testing.T) {
	cfg := protocolCluster(4, protocol.Uncoordinated)
	cfg.MPI.LogMessages = false
	if err := cfg.Validate(); err == nil {
		t.Fatal("uncoordinated protocol without LogMessages passed Validate")
	}
	cfg = protocolCluster(4, protocol.WholeJob)
	cfg.CR.GroupSize = 2
	if err := cfg.Validate(); err == nil {
		t.Fatal("whole-job protocol with a partial group size passed Validate")
	}
}
