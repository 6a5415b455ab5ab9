package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
	"gbcr/internal/workload/motif"
)

// The conformance matrix checks the paper's consistency claim — a restart
// from the recovery line reproduces the failure-free run — for every
// protocol × storage mode × fault. A cell is a workload row × a protocol
// spelling × a storage mode × a fault spec, run as the subtest
// <row>/<spelling>/<mode>/<spec>, so
// `go test ./internal/harness -run 'TestConformance$/ring4/uncoord/central/crash@2s$'`
// replays one cell. Every cell is either rejected with its exact error or
// ends with the failure-free results; its counters are pinned, one line a
// cell, in testdata/conformance.txt (regenerate with -update).

var seedFlag = flag.Int64("gbcr.seed", 1, "seed of the random cells TestQuickScenarioCrashEquivalence and its Tiered twin draw")

// scenarioRing is the matrix's main workload: ~3s of compute with cheap
// snapshots, so several epochs fit.
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

// skewedRing wraps Ring with per-rank snapshot footprints that grow with the
// rank number. Uniform footprints under fair-share storage make every rank's
// write finish at the same instant, so a crash always yields a recovery line
// with one epoch everywhere; skewing the footprints staggers durability and
// opens a window where a crash leaves some ranks durable at the new epoch and
// the rest behind it.
type skewedRing struct{ workload.Ring }

func (w skewedRing) Launch(j *mpi.Job) (workload.Instance, error) { return w.LaunchFrom(j, nil) }

func (w skewedRing) LaunchFrom(j *mpi.Job, states [][]byte) (workload.RestartableInstance, error) {
	inst, err := w.Ring.LaunchFrom(j, states)
	if err != nil {
		return nil, err
	}
	return skewedInstance{inst.(*workload.RingInstance)}, nil
}

type skewedInstance struct{ *workload.RingInstance }

func (s skewedInstance) Footprint(rank int) int64 { return int64(rank*15+5) << 20 }

// spellings are the matrix's protocol columns: every value
// cr.Config.Protocol accepts. The wholejob column is the group protocol with
// one group covering the job, as cr.Config.ResolveProtocol resolves it.
var spellings = []protocol.Kind{protocol.Group, protocol.WholeJob, protocol.Uncoordinated}

var modes = []tier.Mode{tier.ModeCentral, tier.ModeBurst, tier.ModeRAM, tier.ModeHierarchy, tier.ModeLocal}

// noFault names the column without a fault.
const noFault = "none"

// ringSpecs are the fault columns of the ring4 row, before one
// crash:phase=P,epoch=2 column for every phase of any kind's vocabulary.
var ringSpecs = []string{noFault, "crash@2s", "crash@900ms:rank=1",
	"outage@650ms+200ms", "outage@650ms+200ms;crash:phase=write,epoch=2,rank=1;seed=3", "bboutage@400ms+600ms",
	"cmdrop:type=REQ,count=2;crash@2s", "memloss@2s:count=2;seed=5", "memloss@2s:rank=1",
	"corrupt:epoch=2,rank=1;crash@2s", "corrupt:epoch=3,rank=1;crash@2s", "mtbf=1500ms;seed=7",
	"crash@100s", "memloss@100s:rank=1", "crash@9223372036s"}

// row is one workload of the matrix and the cells it runs.
type row struct {
	name     string
	n        int
	w        workload.Restartable
	interval sim.Time
	kinds    []protocol.Kind
	modes    []tier.Mode
	specs    []string
	results  func(workload.Instance) string
	// want is the failure-free results in closed form; when empty, each
	// cell is compared with its kind and mode's no-fault cell.
	want  string
	tweak func(*ClusterConfig)
}

// config is the cell's cluster: group at g=2, wholejob at g=0, uncoord with
// sender-based logging, ram with k=1 and hierarchy with k=2 replicas, then
// the row's own settings.
func (r row) config(kind protocol.Kind, mode tier.Mode) ClusterConfig {
	cfg := smallCluster(r.n)
	cfg.CR.Protocol, cfg.Tiers.Mode = kind, mode
	switch kind {
	case protocol.Group:
		cfg.CR.GroupSize = 2
	case protocol.Uncoordinated:
		cfg.MPI.LogMessages = true
	}
	switch mode {
	case tier.ModeRAM:
		cfg.Tiers.Replicas = 1
	case tier.ModeHierarchy:
		cfg.Tiers.Replicas = 2
	}
	if r.tweak != nil {
		r.tweak(&cfg)
	}
	return cfg
}

func (r row) run(kind protocol.Kind, mode tier.Mode, scn fault.Scenario, bus *obs.Bus) (AvailabilityResult, error) {
	return RunScenario(r.config(kind, mode), r.w, scn, r.interval, bus)
}

// parseCell reads a fault column; noFault is the empty scenario.
func parseCell(t *testing.T, spec string) fault.Scenario {
	if spec == noFault {
		return fault.Scenario{}
	}
	return mustParse(t, spec)
}

func ringSums(i workload.Instance) string { return fmt.Sprint(i.(*workload.RingInstance).Sums) }

func ringWant(w workload.Ring) string {
	want := make([]int64, w.N)
	for me := range want {
		want[me] = workload.ExpectedRingSum(w.N, w.Iters, me)
	}
	return fmt.Sprint(want)
}

func matrix() []row {
	specs := append([]string(nil), ringSpecs...)
	for _, p := range protocol.Group.Phases() {
		specs = append(specs, "crash:phase="+p.String()+",epoch=2")
	}
	columns := func(crash string) []string {
		return []string{noFault, crash, "crash:phase=write,epoch=2", "mtbf=1500ms;seed=7"}
	}
	group := func(g int) func(*ClusterConfig) { return func(c *ClusterConfig) { c.CR.GroupSize = g } }
	onlyCentral, onlyGroup, onlyUncoord := []tier.Mode{tier.ModeCentral}, []protocol.Kind{protocol.Group}, []protocol.Kind{protocol.Uncoordinated}
	ring4, ring6 := scenarioRing(4), workload.Ring{N: 6, Iters: 60, Chunk: 50 * sim.Millisecond, FootprintMB: 10}
	skewed := workload.Ring{N: 4, Iters: 60, Chunk: 20 * sim.Millisecond, FootprintMB: 5}
	livelock := workload.Ring{N: 4, Iters: 110, Chunk: 20 * sim.Millisecond, FootprintMB: 5}
	race := workload.Ring{N: 8, Iters: 200, Chunk: 50 * sim.Millisecond, FootprintMB: 180}
	mine := motif.Mine{Graphs: 32, Vertices: 12, Degree: 3, Labels: 4,
		MinSup: 10, MaxLen: 3, Seed: 5, LevelCompute: 400 * sim.Millisecond}
	rows := []row{
		{name: "ring4", n: 4, w: ring4, interval: 600 * sim.Millisecond, kinds: spellings, modes: modes,
			specs: specs, results: ringSums, want: ringWant(ring4)},
		{name: "allgather", n: 4, w: workload.AllgatherLoop{N: 4, Iters: 40, Chunk: 50 * sim.Millisecond, FootprintMB: 10},
			interval: 700 * sim.Millisecond, kinds: spellings, modes: modes, specs: columns("crash@1500ms"),
			results: func(i workload.Instance) string { return fmt.Sprint(i.(*workload.AllgatherInstance).Hashes) }},
		{name: "stencil", n: 5, w: workload.Stencil{N: 5, Cells: 8, Iters: 50, Chunk: 40 * sim.Millisecond, FootprintMB: 8},
			interval: 600 * sim.Millisecond, kinds: spellings, modes: modes, specs: columns("crash@1400ms"),
			results: func(i workload.Instance) string { return fmt.Sprint(i.(*workload.StencilInstance).Checksums) }},
		{name: "mine", n: 4, w: mine, interval: 600 * sim.Millisecond, kinds: spellings, modes: modes, specs: columns("crash@1100ms"),
			results: func(i workload.Instance) string { return fmt.Sprint(i.(*motif.MineInstance).Frequent) },
			want:    fmt.Sprint(mine.MineSerial())},
		{name: "ring6g1", n: 6, w: ring6, interval: 800 * sim.Millisecond, kinds: onlyGroup, modes: modes,
			specs: columns("crash@1700ms"), results: ringSums, want: ringWant(ring6), tweak: group(1)},
		{name: "ring6g3", n: 6, w: ring6, interval: 800 * sim.Millisecond, kinds: onlyGroup, modes: modes,
			specs: columns("crash@1700ms"), results: ringSums, want: ringWant(ring6), tweak: group(3)},
		// A crash before the first checkpoint restarts from scratch.
		{name: "scratch", n: 6, w: ring6, interval: sim.Second, kinds: spellings, modes: modes,
			specs: []string{noFault, "crash@500ms"}, results: ringSums, want: ringWant(ring6)},
		// The first cycle's request lands at 500ms; rank 0's 5MB write
		// commits quickly while ranks 1-3 (20/35/50MB) are still writing at
		// 900ms, so the recovery line mixes epochs and the restart leans on
		// log replay plus duplicate discard.
		{name: "skewed", n: 4, w: skewedRing{skewed}, interval: 500 * sim.Millisecond, kinds: onlyUncoord, modes: onlyCentral,
			specs: []string{noFault, "crash@900ms"}, want: ringWant(skewed),
			results: func(i workload.Instance) string { return fmt.Sprint(i.(skewedInstance).Sums) }},
		// A livelock regression: a crash in the resume phase leaves the
		// crashed rank durable one epoch ahead of its peers, so on restart
		// the behind ranks replay with its logged sends while it blocks in
		// SendrecvWord until they catch up. A poll that ran a collective
		// agreement would consume the ahead rank's pre-crash contributions
		// from the log and stall for a request that never comes; the
		// uncoordinated poll therefore serves locally.
		{name: "livelock", n: 4, w: livelock, interval: 670 * sim.Millisecond, kinds: onlyUncoord, modes: onlyCentral,
			specs: []string{"crash:phase=resume,epoch=2"}, results: ringSums, want: ringWant(livelock),
			tweak: func(c *ClusterConfig) { c.Seed = 37 }},
		// The abort race: a long central outage fills the burst buffer, one
		// member's write spills to central and fails, and the cycle aborts
		// while another member's burst write is still in flight. That write
		// once landed in the retried cycle and parked its rank forever. Under
		// burst the run gives up; under hierarchy it completes.
		{name: "abortrace", n: 8, w: race, interval: 2 * sim.Second, kinds: onlyGroup,
			modes: []tier.Mode{tier.ModeBurst, tier.ModeHierarchy}, specs: []string{"outage@2s+30s"},
			results: ringSums, want: ringWant(race), tweak: func(c *ClusterConfig) {
				p := PaperCluster(c.N)
				c.Storage, c.CR.LocalSetup = p.Storage, p.CR.LocalSetup
			}},
		// A non-positive interval is rejected before anything is scheduled.
		{name: "interval0", n: 4, w: ring4, interval: 0, kinds: onlyGroup, modes: onlyCentral, specs: []string{noFault}},
		{name: "interval-neg", n: 4, w: ring4, interval: -sim.Second, kinds: onlyGroup, modes: onlyCentral, specs: []string{noFault}},
		{name: "nolog", n: 4, w: ring4, interval: 600 * sim.Millisecond, kinds: onlyUncoord, modes: onlyCentral,
			specs: []string{noFault}, tweak: func(c *ClusterConfig) { c.MPI.LogMessages = false }},
		{name: "wholejob-g2", n: 4, w: ring4, interval: 600 * sim.Millisecond, kinds: []protocol.Kind{protocol.WholeJob},
			modes: onlyCentral, specs: []string{noFault}, tweak: group(2)},
		{name: "ram-k3", n: 3, w: scenarioRing(3), interval: 600 * sim.Millisecond, kinds: onlyGroup,
			modes: []tier.Mode{tier.ModeRAM}, specs: []string{noFault},
			tweak: func(c *ClusterConfig) { c.Tiers.Replicas = 3 }},
	}
	// Sub-millisecond intervals on the paper's storage: cycles run back to
	// back, so a request can reach a finished rank at the instant its
	// reconnect to a peer comes up, with its last word to that peer still in
	// its outbox. Held there through the quiesce, the word kept the peer
	// from its safe point: every row with more than one group deadlocked.
	for _, n := range []int{3, 4, 8} {
		for _, g := range []int{1, 2} {
			for _, us := range []sim.Time{100, 300} {
				w := workload.Ring{N: n, Iters: 40, Chunk: 50 * sim.Millisecond, FootprintMB: 16}
				rows = append(rows, row{name: fmt.Sprintf("ring%dg%d-%dus", n, g, us), n: n, w: w,
					interval: us * sim.Microsecond, kinds: onlyGroup, modes: []tier.Mode{tier.ModeCentral, tier.ModeHierarchy},
					specs: []string{noFault, "crash@2s"}, results: ringSums, want: ringWant(w), tweak: func(c *ClusterConfig) {
						p := PaperCluster(c.N)
						c.Storage, c.CR.LocalSetup, c.CR.GroupSize = p.Storage, p.CR.LocalSetup, g
					}})
			}
		}
	}
	return rows
}

// TestConformance runs every cell of the matrix. Beyond its golden line,
// each cell keeps these rules in code, so -update cannot bless a wrong
// answer:
//   - an accepted cell ends with the failure-free results, and takes longer
//     than the no-fault cell when it failed;
//   - a fault that cannot kill the job (none, outages, faults past the end)
//     leaves Failures at 0, and one past the end leaves Wall equal to the
//     no-fault cell's;
//   - a non-blocking kind never aborts a cycle, and a kind without logging
//     never replays;
//   - a single timed crash at T loses exactly T of wall time when the
//     restart reads no snapshot, and less than T when every rank restarts
//     from one;
//   - no cell deadlocks.
func TestConformance(t *testing.T) {
	golden := map[string]string{}
	if data, err := os.ReadFile(filepath.Join("testdata", "conformance.txt")); err == nil {
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			name, counters, _ := strings.Cut(line, " ")
			golden[name] = counters
		}
	}
	var lines []string
	cells := 0
	for _, r := range matrix() {
		clean := map[string]AvailabilityResult{} // the no-fault cell by kind/mode
		for _, kind := range r.kinds {
			for _, mode := range r.modes {
				for _, spec := range r.specs {
					cells++
					name := strings.Join([]string{r.name, string(kind), string(mode), spec}, "/")
					t.Run(name, func(t *testing.T) {
						got := r.cell(t, kind, mode, spec, clean)
						lines = append(lines, name+" "+got)
						if want := golden[name]; !*updateGolden && got != want {
							t.Errorf("got %q, golden %q", got, want)
						}
					})
				}
			}
		}
	}
	if len(lines) == cells { // no -run filter and no cell stopped early
		checkGolden(t, "conformance.txt", []byte(strings.Join(lines, "\n")+"\n"))
	}
}

// cell runs one cell, checks the rules TestConformance lists, and returns
// its golden line.
func (r row) cell(t *testing.T, kind protocol.Kind, mode tier.Mode, spec string, clean map[string]AvailabilityResult) string {
	scn := parseCell(t, spec)
	res, err := r.run(kind, mode, scn, nil)
	if err != nil {
		if strings.Contains(err.Error(), "deadlock") {
			t.Error(err)
		}
		return "rejected: " + err.Error()
	}
	key := string(kind) + "/" + string(mode)
	if spec == noFault {
		clean[key] = res
	}
	ref := func() AvailabilityResult {
		if _, ok := clean[key]; !ok {
			c, err := r.run(kind, mode, fault.Scenario{}, nil)
			if err != nil {
				t.Fatalf("no-fault cell: %v", err)
			}
			clean[key] = c
		}
		return clean[key]
	}
	want := r.want
	if want == "" {
		want = r.results(ref().FinalInst)
	}
	if got := r.results(res.FinalInst); got != want {
		t.Errorf("results %s, failure-free %s", got, want)
	}
	harmless, pastEnd := scn.MTBF == 0, false
	for _, f := range scn.Faults {
		switch {
		case f.Kind == fault.StorageOutage || f.Kind == fault.BurstBufferOutage:
		case (f.Kind == fault.RankCrash || f.Kind == fault.NodeMemoryLoss) && f.Phase == 0 && f.At >= ref().Wall:
			pastEnd = true
		default:
			harmless = false
		}
	}
	if harmless && res.Failures != 0 {
		t.Errorf("failures = %d from a fault that cannot kill the job", res.Failures)
	}
	if res.Failures > 0 && res.Wall <= ref().Wall {
		t.Errorf("wall %v after %d failures, failure-free %v", res.Wall, res.Failures, ref().Wall)
	}
	if harmless && pastEnd && res.Wall != ref().Wall {
		t.Errorf("wall %v after a fault past the end, failure-free %v", res.Wall, ref().Wall)
	}
	if kind == protocol.Uncoordinated && res.CycleAborts != 0 {
		t.Errorf("cycle aborts = %d under a non-blocking kind", res.CycleAborts)
	}
	if !r.config(kind, mode).MPI.LogMessages && res.Replayed != 0 {
		t.Errorf("replayed %d messages without logging", res.Replayed)
	}
	recovered := res.RecoveredRAM + res.RecoveredLocal + res.RecoveredBurst + res.RecoveredCentral
	if f := scn.Faults; len(f) == 1 && f[0].Kind == fault.RankCrash && f[0].Phase == 0 && scn.MTBF == 0 && res.Failures == 1 {
		lost := res.Wall - ref().Wall
		if recovered == 0 && lost != f[0].At || recovered == r.n && lost >= f[0].At {
			t.Errorf("%s lost %v of wall time restarting %d ranks from a snapshot", spec, lost, recovered)
		}
	}
	return fmt.Sprintf("failures=%d ckpts=%d aborts=%d corrupt=%d replayed=%d ram=%d local=%d burst=%d central=%d",
		res.Failures, res.Checkpoints, res.CycleAborts, res.CorruptSkipped, res.Replayed,
		res.RecoveredRAM, res.RecoveredLocal, res.RecoveredBurst, res.RecoveredCentral)
}

// traceBatch is one faulted ring4 cell for every accepted (kind, mode) pair,
// with JSONL and Chrome sinks, run through Runner.ForEach at widths 1 and 2.
// It is built once and shared by the four trace tests below.
type traceBatch struct {
	pairs   []tracePair
	jsonl   [2][][]byte // by width-1
	chrome  [2][][]byte
	results [2][]AvailabilityResult
	err     error
}

type tracePair struct {
	kind protocol.Kind
	mode tier.Mode
}

var (
	traceOnce sync.Once
	traces    traceBatch
)

// faultedTraces returns the shared batch: central and local cells suffer
// message drops, an outage and a crash, burst cells a burst-buffer outage
// and a crash, and RAM cells a two-node memory loss.
func faultedTraces(t *testing.T) *traceBatch {
	t.Helper()
	traceOnce.Do(func() { traces = buildTraces() })
	if traces.err != nil {
		t.Fatal(traces.err)
	}
	return &traces
}

func buildTraces() (b traceBatch) {
	specs := map[tier.Mode]string{
		tier.ModeCentral: "cmdrop:type=REQ,count=2;outage@650ms+200ms;crash@2s;seed=9",
		tier.ModeBurst:   "bboutage@400ms+600ms;crash@2s",
	}
	const memloss = "memloss@2s:count=2;seed=5"
	r := matrix()[0] // ring4
	for _, kind := range spellings {
		for _, mode := range modes {
			if r.config(kind, mode).Validate() == nil {
				b.pairs = append(b.pairs, tracePair{kind, mode})
			}
		}
	}
	for w := range b.jsonl {
		jsonl, chrome := make([][]byte, len(b.pairs)), make([][]byte, len(b.pairs))
		results := make([]AvailabilityResult, len(b.pairs))
		b.err = NewRunner(w+1).ForEach(len(b.pairs), func(i int) error {
			spec, ok := specs[b.pairs[i].mode]
			if !ok {
				spec = memloss
			}
			scn, err := fault.Parse(spec)
			if err != nil {
				return err
			}
			var jb, cb bytes.Buffer
			js, ch := obs.NewJSONL(&jb), obs.NewChrome()
			res, err := r.run(b.pairs[i].kind, b.pairs[i].mode, scn, obs.NewBus(js, ch))
			if err == nil {
				err = js.Err()
			}
			if err == nil {
				err = obs.RenderChromeMulti(&cb, []*obs.ChromeSink{ch})
			}
			if err != nil {
				return fmt.Errorf("%v: %w", b.pairs[i], err)
			}
			res.FinalInst = nil // instances carry pointers; compare the numbers
			jsonl[i], chrome[i], results[i] = jb.Bytes(), cb.Bytes(), res
			return nil
		})
		if b.err != nil {
			b.err = fmt.Errorf("workers=%d: %w", w+1, b.err)
			return b
		}
		b.jsonl[w], b.chrome[w], b.results[w] = jsonl, chrome, results
	}
	return b
}

// identical reports whether pair i exported the same bytes at both widths.
func (b *traceBatch) identical(i int) bool {
	return bytes.Equal(b.jsonl[0][i], b.jsonl[1][i]) && bytes.Equal(b.chrome[0][i], b.chrome[1][i])
}

// TestScenarioTraceDeterministic: the same scenario and seed export
// byte-identical JSONL and Chrome traces on every run — the package's core
// determinism contract extended to faulted runs. Every pair's exports parse,
// and its Chrome trace has a faults track.
func TestScenarioTraceDeterministic(t *testing.T) {
	b := faultedTraces(t)
	for i, p := range b.pairs {
		if len(b.jsonl[0][i]) == 0 || len(b.chrome[0][i]) == 0 {
			t.Fatalf("%v: empty export: jsonl=%d chrome=%d bytes", p, len(b.jsonl[0][i]), len(b.chrome[0][i]))
		}
		for n, line := range bytes.Split(bytes.TrimSuffix(b.jsonl[0][i], []byte("\n")), []byte("\n")) {
			if !json.Valid(line) {
				t.Fatalf("%v: JSONL line %d does not parse: %s", p, n+1, line)
			}
		}
		if !json.Valid(b.chrome[0][i]) || !bytes.Contains(b.chrome[0][i], []byte(`"faults"`)) {
			t.Errorf("%v: Chrome trace does not parse or has no faults track", p)
		}
		if p == (tracePair{protocol.Group, tier.ModeCentral}) && !b.identical(i) {
			t.Errorf("%v: traces differ between identical faulted runs", p)
		}
	}
}

// TestCrossProtocolTraceDeterminism: under one central fault spec, each
// protocol column (group at g=2, wholejob — group at g=N — and uncoord)
// replays its own trace byte for byte, and the three traces are pairwise
// distinct.
func TestCrossProtocolTraceDeterminism(t *testing.T) {
	b := faultedTraces(t)
	central := map[protocol.Kind][]byte{}
	for i, p := range b.pairs {
		if p.mode != tier.ModeCentral {
			continue
		}
		if !b.identical(i) {
			t.Errorf("%v: traces differ between identical faulted runs", p)
		}
		central[p.kind] = b.jsonl[0][i]
	}
	if len(central) != 3 || bytes.Equal(central[protocol.Group], central[protocol.WholeJob]) ||
		bytes.Equal(central[protocol.WholeJob], central[protocol.Uncoordinated]) ||
		bytes.Equal(central[protocol.Group], central[protocol.Uncoordinated]) {
		t.Error("the three columns' central traces are not pairwise distinct")
	}
}

// TestScenarioTieredTraceDeterministic extends the byte-identical trace
// contract to tiered runs: drains, spills, and memory-loss faults land at
// identical instants on every replay, and the batch carries every fault and
// tier event.
func TestScenarioTieredTraceDeterministic(t *testing.T) {
	b := faultedTraces(t)
	for i, p := range b.pairs {
		if p.mode != tier.ModeCentral && !b.identical(i) {
			t.Errorf("%v: tiered traces differ between identical runs", p)
		}
	}
	all := bytes.Join(b.jsonl[0], nil)
	for _, what := range []string{"crash", "outage", "bb-outage", "memloss", "tier-write", "tier-drain", "tier-recover"} {
		if !bytes.Contains(all, []byte(`"what":"`+what+`"`)) {
			t.Errorf("no %s event in any trace", what)
		}
	}
}

// TestShardedFaultScenarioEquivalence: spreading the faulted batch over one
// worker or two changes no byte of any export and no result.
func TestShardedFaultScenarioEquivalence(t *testing.T) {
	b := faultedTraces(t)
	for i, p := range b.pairs {
		if !b.identical(i) {
			t.Errorf("%v: exports differ between widths 1 and 2", p)
		}
	}
	if !reflect.DeepEqual(b.results[0], b.results[1]) {
		t.Error("results differ between widths 1 and 2")
	}
}

// draws is the number of random cells each random test makes.
const draws = 20

// TestQuickScenarioCrashEquivalence draws random central-storage cells: n,
// kind, group size, helper, footprint, chunk, iterations, interval (one in
// four below a millisecond), and a timed or phase crash. Whatever instant or
// phase the fault kills the job in, the rerun from the recovery line
// reproduces the failure-free results.
// Draw K depends only on K and -gbcr.seed (default 1, so tier-1 draws the
// same cells on every run).
func TestQuickScenarioCrashEquivalence(t *testing.T) { randomCells(t, false) }

// TestQuickScenarioCrashEquivalenceTiered draws the same ranges under a
// storage hierarchy: a blocking kind, a tiered mode and its replicas, and a
// timed or phase crash or the loss of 1..k+1 consecutive nodes' memory.
func TestQuickScenarioCrashEquivalenceTiered(t *testing.T) { randomCells(t, true) }

func randomCells(t *testing.T, tiered bool) {
	name, salt := t.Name(), int64(0)
	if tiered {
		salt = 1
	}
	for k := 0; k < draws; k++ {
		t.Run(fmt.Sprintf("draw=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource((*seedFlag*2+salt)*draws + int64(k)))
			n := rng.Intn(5) + 2
			kinds, mode := protocol.Kinds(), tier.ModeCentral
			if tiered { // the tiers need a global epoch commit
				kinds = []protocol.Kind{protocol.Group}
				mode = modes[rng.Intn(len(modes)-1)+1]
			}
			kind := kinds[rng.Intn(len(kinds))]
			cfg := smallCluster(n)
			cfg.Seed = rng.Int63n(1000) + 1
			cfg.CR.Protocol = kind
			cfg.CR.HelperEnabled = rng.Intn(3) != 0
			footprintMB := int64(rng.Intn(15) + 1)
			switch kind {
			case protocol.Group:
				cfg.CR.GroupSize = rng.Intn(n + 1)
			case protocol.Uncoordinated:
				cfg.MPI.LogMessages = true
			}
			cfg.Tiers.Mode = mode
			if mode.Has(tier.RAM) {
				cfg.Tiers.Replicas = rng.Intn(min(2, n-1)) + 1
			}
			w := workload.Ring{N: n, Iters: rng.Intn(60) + 100,
				Chunk: sim.Time(rng.Intn(40)+20) * sim.Millisecond, FootprintMB: footprintMB}
			shapes := 2
			if tiered {
				shapes = 3
			}
			var spec string
			switch phases := kind.Phases(); rng.Intn(shapes) {
			case 0: // anywhere from mid-first-interval to near the end
				spec = fmt.Sprintf("crash@%dms", rng.Intn(1700)+300)
			case 1: // any phase of an early epoch, on any rank or one
				spec = fmt.Sprintf("crash:phase=%s,epoch=%d", phases[rng.Intn(len(phases))], rng.Intn(2)+1)
				if rng.Intn(2) == 0 {
					spec += fmt.Sprintf(",rank=%d", rng.Intn(n))
				}
			default: // 1..k+1 consecutive nodes: survivable in RAM or not
				spec = fmt.Sprintf("memloss@%dms:rank=%d,count=%d",
					rng.Intn(1700)+300, rng.Intn(n), rng.Intn(cfg.Tiers.Replicas+1)+1)
			}
			interval := sim.Time(rng.Intn(300)+400) * sim.Millisecond
			if rng.Intn(4) == 0 { // back-to-back cycles: log-uniform over 100µs..1ms
				interval = sim.Time(float64(100*sim.Microsecond) * math.Pow(10, rng.Float64()))
			}
			res, err := RunScenario(cfg, w, mustParse(t, spec), interval, nil)
			if err == nil && res.Failures != 1 {
				err = fmt.Errorf("failures = %d, want 1", res.Failures)
			}
			if err == nil && ringSums(res.FinalInst) != ringWant(w) {
				err = fmt.Errorf("results %s, failure-free %s", ringSums(res.FinalInst), ringWant(w))
			}
			if err != nil {
				t.Fatalf("%s/%s n=%d g=%d k=%d helper=%v %d MB %s every %v: %v\nreplay: go test ./internal/harness -run '%s/^draw=%d$' -gbcr.seed=%d",
					kind, mode, n, cfg.CR.GroupSize, cfg.Tiers.Replicas, cfg.CR.HelperEnabled, footprintMB, spec, interval, err, name, k, *seedFlag)
			}
		})
	}
}
