// Command ckptsim runs one checkpointing experiment on the simulated
// cluster and prints the paper's delay metrics.
//
// Examples:
//
//	ckptsim -workload hpl -group 4 -at 50
//	ckptsim -workload commgroups -n 32 -comm 8 -group 8 -at 10
//	ckptsim -workload motif -group 0 -at 30        # regular protocol
//	ckptsim -workload barrier -group 8 -at 55      # near the barrier
//	ckptsim -workload commgroups -group 4 -dynamic # dynamic group formation
//	ckptsim -workload ring -mtbf 60 -interval 15   # run under failures
//	ckptsim -workload ring -interval 5 -faults 'crash@12s;outage@20s+5s'
//	ckptsim -workload ring -interval 5 -faults scenario.txt -trace-chrome t.json
//	ckptsim -workload ring -protocol wholejob -at 10        # ICPP'06 baseline
//	ckptsim -workload ring -protocol uncoord -interval 5 -faults crash@12s
//	ckptsim -workload ring -storage hierarchy -replicas 2 -interval 5 -faults 'memloss@17s:count=2'
//	ckptsim -workload ring -storage burst -interval 5 -faults 'bboutage@20s+5s'
//	ckptsim -workload ring -storage local -interval 5 -faults 'memloss@17s'   # Section 2.1 staging
//	ckptsim -workload commgroups -group 8 -at 10,20,30,40   # one cell per time, merged outputs
//	ckptsim -workload ring -mtbf 20 -interval 8 -memprofile m.out   # host allocation profile
//
// Invalid flags and failed runs exit with status 1 and a one-line message; a
// failed run still writes the trace and metrics files it was asked for.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"gbcr/cmd/internal/prof"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
	"gbcr/internal/workload/hpl"
	"gbcr/internal/workload/motif"
)

// protocols lists the -protocol spellings: the protocol kinds, and wholejob,
// the group protocol with one group covering the job.
var protocols = []string{string(protocol.Group), string(protocol.WholeJob), string(protocol.Uncoordinated)}

// shapeFlags lists which of the workload-shape flags (-n, -comm, -footprint,
// -iters) each workload reads; hpl and motif are the paper's fixed problems.
var shapeFlags = map[string][]string{
	"commgroups": {"n", "comm", "footprint", "iters"},
	"barrier":    {"n", "comm", "footprint"},
	"hpl":        nil,
	"motif":      nil,
	"ring":       {"n", "footprint", "iters"},
	"allgather":  {"n", "footprint", "iters"},
	"stencil":    {"n", "footprint", "iters"},
}

// shapeFlagList renders a workload's shape flags for a message.
func shapeFlagList(workload string) string {
	if len(shapeFlags[workload]) == 0 {
		return "none of the shape flags (its size is fixed)"
	}
	return "only -" + strings.Join(shapeFlags[workload], ", -")
}

// stopProfiles ends the -cpuprofile and -memprofile profiles once they have
// started; fail calls it, so a failed run still writes them.
var stopProfiles = func() error { return nil }

// fail prints a one-line message and exits with status 1.
func fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if err := stopProfiles(); err != nil {
		msg += "; writing profiles: " + err.Error()
	}
	fmt.Fprintf(os.Stderr, "ckptsim: %s\n", msg)
	os.Exit(1)
}

func main() {
	var (
		name      = flag.String("workload", "commgroups", "workload: commgroups, barrier, hpl, motif, ring, allgather, stencil")
		n         = flag.Int("n", 32, "number of ranks (commgroups/barrier/ring/allgather/stencil)")
		comm      = flag.Int("comm", 8, "communication group size (commgroups/barrier)")
		group     = flag.Int("group", 8, "checkpoint group size (0 = regular, all at once)")
		proto     = flag.String("protocol", "group", "coordination protocol: "+strings.Join(protocols, ", "))
		at        = flag.String("at", "10", "checkpoint issuance time(s) in seconds; a comma-separated list runs one cell per time")
		foot      = flag.Int64("footprint", 180, "per-process footprint in MB (commgroups/barrier/ring/allgather/stencil)")
		iters     = flag.Int("iters", 900, "iterations (commgroups/ring/allgather/stencil)")
		dynamic   = flag.Bool("dynamic", false, "dynamic group formation from the communication pattern")
		helper    = flag.Bool("helper", true, "enable the passive-coordination helper thread")
		verbose   = flag.Bool("v", false, "print per-rank checkpoint records")
		showTrace = flag.Bool("trace", false, "print the protocol timeline")
		traceJSON = flag.String("trace-json", "", "write the full event timeline as JSON Lines to this file")
		traceChr  = flag.String("trace-chrome", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) to this file")
		metrics   = flag.String("metrics-json", "", "write the run's metrics registry as JSON to this file")
		mtbf      = flag.Float64("mtbf", 0, "run to completion under failures with this MTBF in seconds (restartable workloads)")
		interval  = flag.Float64("interval", 0, "periodic checkpoint interval in seconds (with -mtbf or -faults)")
		seed      = flag.Int64("seed", 1, "failure-injection seed (with -mtbf or -faults)")
		faults    = flag.String("faults", "", "fault scenario: a spec like 'crash@12s;outage@20s+5s;mtbf=90s' or a file holding one")
		storeMode = flag.String("storage", "central", "checkpoint storage: central, burst, ram, hierarchy, local (node-local disk staging)")
		replicas  = flag.Int("replicas", 0, "RAM-tier partner replicas per rank (with -storage ram or hierarchy; 0 = default 2)")
		cpuProf   = flag.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
		memProf   = flag.String("memprofile", "", "write a host allocation profile (pprof) of the run to this file")
	)
	flag.Parse()

	// Flags that only steer the failure runner are rejected, not ignored,
	// when nothing enables that runner: a silently dropped -interval or
	// -seed would misreport what the run measured.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mtbfT := seconds("mtbf", *mtbf)
	intervalT := seconds("interval", *interval)
	failureRun := mtbfT > 0 || *faults != ""
	if set["interval"] && !failureRun {
		fail("-interval only applies to failure runs; add -mtbf or -faults")
	}
	if set["seed"] && !failureRun {
		fail("-seed only applies to failure runs; add -mtbf or -faults")
	}

	// Protocol selection. Group-structure flags only make sense under the
	// group protocol; passing them with another kind is rejected, not
	// ignored, so the printed protocol line always matches what ran.
	kind := protocol.Kind(*proto)
	if last := len(protocols) - 1; !slices.Contains(protocols, *proto) {
		fail("unknown -protocol %q (want %s, or %s)", *proto, strings.Join(protocols[:last], ", "), protocols[last])
	}
	if kind != protocol.Group {
		if set["group"] {
			fail("-group only applies to -protocol group; %s fixes the group structure", kind)
		}
		if set["dynamic"] {
			fail("-dynamic only applies to -protocol group; %s does not form groups", kind)
		}
		*group = 0 // one group, or none
	}
	if kind == protocol.Uncoordinated && set["helper"] {
		fail("-helper does not apply to -protocol uncoord; there is no passive-coordination state to bound")
	}

	// Storage-hierarchy selection. Like the group-structure flags, unusable
	// combinations are rejected rather than ignored: -replicas without a
	// RAM-bearing mode here; a tiered mode under a protocol whose commit model
	// the hierarchy does not support by cfg.Validate, once cfg is assembled.
	mode := tier.Mode(*storeMode)
	if !mode.Valid() {
		fail("unknown -storage %q (want central, burst, ram, hierarchy, or local)", *storeMode)
	}
	if set["replicas"] && !mode.HasRAM() {
		fail("-replicas only applies to -storage ram or hierarchy; %s has no RAM replication tier", mode)
	}
	if *replicas < 0 {
		fail("-replicas must not be negative, got %d", *replicas)
	}

	// Issuance times. Multiple -at values form a cell matrix that runs on
	// the Runner's worker pool. Combinations it cannot honor are rejected,
	// not ignored: a failure run is one serial restart chain, so there are
	// no cells to spread.
	ats := parseTimes(*at)
	multiCell := len(ats) > 1
	if multiCell && failureRun {
		fail("-at lists do not apply to failure runs; an availability run is one serial restart chain")
	}
	if multiCell && *verbose {
		fail("-v only applies to single-cell runs; use -trace for the merged timeline")
	}

	if *n <= 0 {
		fail("-n must be positive, got %d", *n)
	}
	if *comm <= 0 {
		fail("-comm must be positive, got %d", *comm)
	}
	if *group < 0 {
		fail("-group must not be negative, got %d", *group)
	}
	if *foot < 0 {
		fail("-footprint must not be negative, got %d", *foot)
	}
	if *iters <= 0 {
		fail("-iters must be positive, got %d", *iters)
	}

	var w workload.Workload
	ranks := *n
	switch *name {
	case "commgroups":
		w = workload.CommGroups{N: *n, CommGroupSize: *comm, Iters: *iters,
			Chunk: 100 * sim.Millisecond, FootprintMB: *foot}
	case "barrier":
		w = workload.BarrierPhases{N: *n, CommGroupSize: *comm,
			Chunk: 100 * sim.Millisecond, BarrierEvery: sim.Minute,
			Phases: 3, FootprintMB: *foot}
	case "hpl":
		hw := hpl.PaperTimed()
		ranks = hw.P * hw.Q
		w = hw
	case "motif":
		mw := motif.PaperTimed()
		ranks = mw.N
		w = mw
	case "ring":
		w = workload.Ring{N: *n, Iters: *iters,
			Chunk: 50 * sim.Millisecond, FootprintMB: *foot}
	case "allgather":
		w = workload.AllgatherLoop{N: *n, Iters: *iters,
			Chunk: 50 * sim.Millisecond, FootprintMB: *foot}
	case "stencil":
		w = workload.Stencil{N: *n, Cells: 64, Iters: *iters,
			Chunk: 50 * sim.Millisecond, FootprintMB: *foot}
	default:
		fail("unknown workload %q (want commgroups, barrier, hpl, motif, ring, allgather, or stencil)", *name)
	}
	// Like -interval and -group above, a shape flag the workload does not
	// read is rejected, not ignored: "-workload hpl -n 7" would otherwise
	// print a 32-rank result as if it had been asked for.
	for _, f := range []string{"n", "comm", "footprint", "iters"} {
		if set[f] && !slices.Contains(shapeFlags[*name], f) {
			fail("-%s does not apply to -workload %s, which reads %s", f, *name, shapeFlagList(*name))
		}
	}
	// The default group size shrinks to a smaller job; an explicit one must fit.
	if !set["group"] {
		*group = min(*group, ranks)
	} else if *group > ranks {
		fail("-group %d exceeds the job size %d", *group, ranks)
	}

	cfg := harness.PaperCluster(ranks)
	cfg.CR.Protocol = kind
	cfg.CR.GroupSize = *group
	cfg.CR.Dynamic = *dynamic
	cfg.CR.HelperEnabled = *helper
	cfg.MPI.LogMessages = kind == protocol.Uncoordinated
	cfg.Tiers.Mode = mode
	cfg.Tiers.Replicas = *replicas
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail("%v", err)
	}
	stopProfiles = stop
	defer func() {
		if err := stop(); err != nil {
			fail("writing profiles: %v", err)
		}
	}()

	if multiCell {
		cells := make([]harness.Cell, len(ats))
		for i, t := range ats {
			cells[i] = harness.Cell{Config: cfg, Workload: w, IssuedAt: t}
		}
		run, err := harness.NewRunner(0).RunCaptured(cells, harness.Capture{
			Trace:  *showTrace,
			JSONL:  *traceJSON != "",
			Chrome: *traceChr != "",
		})
		if err != nil {
			fail("%v", err)
		}
		export(*traceJSON, run.WriteJSONL)
		export(*traceChr, run.WriteChrome)
		export(*metrics, run.Aggregate().WriteJSON)
		header(w, cfg)
		for i, res := range run.Results {
			fmt.Printf("cell %d: at=%-6v baseline=%v with=%v delay=%v total=%v\n",
				i, res.IssuedAt, res.Baseline, res.WithCkpt, res.EffectiveDelay(), res.Total())
		}
		if *showTrace {
			fmt.Println("\nmerged timeline:")
			if err := run.RenderTimeline(os.Stdout); err != nil {
				fail("%v", err)
			}
		}
		return
	}

	// Build the observability bus only when some output is requested: a nil
	// bus keeps the instrumented hot paths on their single-pointer-check
	// disabled route.
	var (
		bus    *obs.Bus
		mem    *obs.MemorySink
		jsonl  *obs.JSONLSink
		jsonlB bytes.Buffer
		chrome *obs.ChromeSink
	)
	if *showTrace || *traceJSON != "" || *traceChr != "" || *metrics != "" {
		bus = obs.NewBus()
		if *showTrace {
			mem = &obs.MemorySink{}
			bus.AddSink(mem)
		}
		if *traceJSON != "" {
			jsonl = obs.NewJSONL(&jsonlB)
			bus.AddSink(jsonl)
		}
		if *traceChr != "" {
			chrome = obs.NewChrome()
			bus.AddSink(chrome)
		}
	}
	writeOutputs := func() {
		export(*traceJSON, func(w io.Writer) error {
			if jsonl.Err() != nil {
				return jsonl.Err()
			}
			_, err := w.Write(jsonlB.Bytes())
			return err
		})
		export(*traceChr, func(w io.Writer) error { return chrome.Render(w) })
		export(*metrics, func(w io.Writer) error { return bus.Metrics().Snapshot().WriteJSON(w) })
	}

	if failureRun {
		rw, ok := w.(workload.Restartable)
		if !ok {
			fail("-mtbf/-faults require a restartable workload (ring, allgather, stencil)")
		}
		scn := loadScenario(*faults)
		if set["mtbf"] {
			scn.MTBF = mtbfT
		}
		if set["seed"] || scn.Seed == 0 {
			scn.Seed = *seed
		}
		iv := intervalT
		if iv <= 0 {
			if scn.MTBF <= 0 {
				fail("-faults without a scenario MTBF needs an explicit -interval")
			}
			iv = scn.MTBF / 4
		}
		fr, err := harness.RunScenario(cfg, rw, scn, iv, bus)
		writeOutputs() // a failed run's timeline is the one worth reading
		if err != nil {
			fail("%v", err)
		}
		header(w, cfg)
		if scn.MTBF > 0 {
			fmt.Printf("checkpoint interval:   %v (MTBF %v)\n", iv, scn.MTBF)
		} else {
			fmt.Printf("checkpoint interval:   %v\n", iv)
		}
		if len(scn.Faults) > 0 {
			fmt.Printf("injected faults:       %s\n", scn.String())
		}
		fmt.Printf("wall time to finish:   %v\n", fr.Wall)
		fmt.Printf("failures survived:     %d\n", fr.Failures)
		fmt.Printf("checkpoints completed: %d\n", fr.Checkpoints)
		if fr.CycleAborts > 0 {
			fmt.Printf("cycles aborted:        %d\n", fr.CycleAborts)
		}
		if fr.CorruptSkipped > 0 {
			fmt.Printf("corrupt epochs skipped: %d\n", fr.CorruptSkipped)
		}
		if mode.Tiered() && fr.Failures > 0 {
			by := map[tier.Level]int{tier.RAM: fr.RecoveredRAM, tier.Local: fr.RecoveredLocal,
				tier.Burst: fr.RecoveredBurst, tier.Central: fr.RecoveredCentral}
			fmt.Print("recovered from tiers: ")
			for _, level := range mode.Levels() {
				fmt.Printf(" %s=%d", level, by[level])
			}
			fmt.Println()
		}
		if *showTrace {
			fmt.Println("\nfault injections:")
			for _, e := range mem.ByLayer(obs.LayerFault) {
				fmt.Println(e)
			}
		}
		return
	}

	res, err := harness.MeasureObserved(cfg, w, ats[0], bus)
	writeOutputs()
	if err != nil {
		fail("%v", err)
	}
	header(w, cfg)
	fmt.Printf("checkpoint issued at:  %v\n", res.IssuedAt)
	fmt.Printf("baseline completion:   %v\n", res.Baseline)
	fmt.Printf("with checkpoint:       %v\n", res.WithCkpt)
	fmt.Printf("effective ckpt delay:  %v\n", res.EffectiveDelay())
	fmt.Printf("individual ckpt time:  %v mean, %v max\n",
		res.Report.MeanIndividual(), res.Report.MaxIndividual())
	fmt.Printf("total ckpt time:       %v\n", res.Total())
	if mode.Tiered() {
		fmt.Printf("vulnerability window:  %v\n", res.Report.VulnerabilityWindow())
	}
	fmt.Printf("storage share:         %.1f%%\n", 100*res.Report.StorageShare())
	fmt.Printf("groups:                %v\n", res.Report.Groups)
	if *showTrace {
		fmt.Println("\ncycle gantt:")
		fmt.Print(res.Report.Gantt(72))
		fmt.Println("\nprotocol timeline (cr layer):")
		for _, e := range mem.ByLayer(obs.LayerCR) {
			fmt.Println(e)
		}
		fmt.Println("\nevent counts by rank and layer:")
		fmt.Print(mem.Summary())
	}
	if *verbose {
		fmt.Println("\nper-rank records:")
		for rank, rec := range res.Report.Records {
			fmt.Printf("  rank %2d group %d: stop %v, write %v..%v (%.0f MB), resume %v, downtime %v\n",
				rank, rec.Group, rec.SafePointAt, rec.WriteStart, rec.WriteEnd,
				float64(rec.Footprint)/(1<<20), rec.ResumeAt, rec.Individual())
		}
	}
}

// parseTimes parses the -at flag: one or more comma-separated checkpoint
// issuance times in seconds.
func parseTimes(arg string) []sim.Time {
	parts := strings.Split(arg, ",")
	out := make([]sim.Time, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fail("-at: %q is not a number", p)
		}
		out = append(out, seconds("at", v))
	}
	return out
}

// export renders one output into memory and writes it to path, so a failed
// encoding never leaves a truncated file; an unset flag (empty path) is a
// no-op.
func export(path string, render func(io.Writer) error) {
	if path == "" {
		return
	}
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		fail("encoding %s: %v", path, err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fail("%v", err)
	}
}

// seconds converts a seconds-valued flag to simulated time, rejecting what
// the int64-nanosecond clock cannot represent: NaN, ±Inf, and magnitudes
// that overflow it. Negative times are rejected as well.
func seconds(flagName string, v float64) sim.Time {
	if math.IsNaN(v) || v*float64(sim.Second) >= math.MaxInt64 {
		fail("-%s must be a finite time below %v, got %v", flagName, sim.Time(math.MaxInt64), v)
	}
	if v < 0 {
		fail("-%s must not be negative, got %v", flagName, v)
	}
	return sim.Seconds(v)
}

// loadScenario parses the -faults argument: the name of a file holding a
// scenario spec, or the spec itself.
func loadScenario(arg string) fault.Scenario {
	if arg == "" {
		return fault.Scenario{}
	}
	spec := arg
	if data, err := os.ReadFile(arg); err == nil {
		spec = strings.TrimSpace(string(data))
	}
	scn, err := fault.Parse(spec)
	if err != nil {
		fail("%v", err)
	}
	return scn
}

// header prints the lines every report starts with: what ran, under which
// protocol, and — for a multi-level storage stack — against which storage.
func header(w workload.Workload, cfg harness.ClusterConfig) {
	fmt.Printf("workload:              %s (%d ranks)\n", w.Name(), cfg.N)
	fmt.Printf("protocol:              %s\n", protocolName(cfg.CR.Protocol, cfg.CR.GroupSize, cfg.N, cfg.CR.Dynamic))
	switch mode := cfg.Tiers.Mode; {
	case mode.HasRAM():
		fmt.Printf("storage:               %s (%d RAM replicas)\n", mode, cfg.Tiers.ReplicaCount())
	case mode.Tiered():
		fmt.Printf("storage:               %s\n", mode)
	}
}

func protocolName(kind protocol.Kind, group, ranks int, dynamic bool) string {
	switch {
	case kind == protocol.Uncoordinated:
		return "uncoordinated + sender-based message logging"
	case dynamic:
		return fmt.Sprintf("group-based (dynamic formation, max size %d)", group)
	case group <= 0 || group >= ranks:
		return "regular coordinated (all at once)"
	default:
		return fmt.Sprintf("group-based (static groups of %d)", group)
	}
}
