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
// Flags that do not parse exit with status 2 and the usage; invalid input, a
// flag the run does not read, and failed runs with status 1 and a one-line
// message. A failed run still writes the trace and metrics files it was asked
// for, unless it failed before recording anything.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"gbcr/cmd/internal/cli"
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

// workloads lists the -workload choices: the shape flags each reads (hpl
// and motif are the paper's fixed problems), and a constructor that takes
// -n, -comm, -iters and -footprint and returns the workload and its ranks.
var workloads = []struct {
	name  string
	reads []string
	build func(n, comm, iters int, foot int64) (workload.Workload, int)
}{
	{"commgroups", []string{"n", "comm", "footprint", "iters"}, func(n, comm, iters int, foot int64) (workload.Workload, int) {
		return workload.CommGroups{N: n, CommGroupSize: comm, Iters: iters,
			Chunk: 100 * sim.Millisecond, FootprintMB: foot}, n
	}},
	{"barrier", []string{"n", "comm", "footprint"}, func(n, comm, _ int, foot int64) (workload.Workload, int) {
		return workload.BarrierPhases{N: n, CommGroupSize: comm, Chunk: 100 * sim.Millisecond,
			BarrierEvery: sim.Minute, Phases: 3, FootprintMB: foot}, n
	}},
	{"hpl", nil, func(int, int, int, int64) (workload.Workload, int) { w := hpl.PaperTimed(); return w, w.P * w.Q }},
	{"motif", nil, func(int, int, int, int64) (workload.Workload, int) { w := motif.PaperTimed(); return w, w.N }},
	{"ring", []string{"n", "footprint", "iters"}, func(n, _, iters int, foot int64) (workload.Workload, int) {
		return workload.Ring{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: foot}, n
	}},
	{"allgather", []string{"n", "footprint", "iters"}, func(n, _, iters int, foot int64) (workload.Workload, int) {
		return workload.AllgatherLoop{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: foot}, n
	}},
	{"stencil", []string{"n", "footprint", "iters"}, func(n, _, iters int, foot int64) (workload.Workload, int) {
		return workload.Stencil{N: n, Cells: 64, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: foot}, n
	}},
}

func main() {
	os.Exit(cli.Status("ckptsim", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// run is one ckptsim invocation: it writes the report to stdout and returns
// the reason it rejected the input or the run failed.
func run(args []string, stdout, stderr io.Writer) (err error) {
	names := make([]string, len(workloads))
	readers := make(map[string][]string) // shape flag -> the workloads reading it, for its usage line
	for i, wl := range workloads {
		names[i] = wl.name
		for _, f := range wl.reads {
			readers[f] = append(readers[f], wl.name)
		}
	}
	fs := flag.NewFlagSet("ckptsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "commgroups", "workload: "+strings.Join(names, ", "))
		n         = fs.Int("n", 32, "number of ranks ("+strings.Join(readers["n"], "/")+")")
		comm      = fs.Int("comm", 8, "communication group size ("+strings.Join(readers["comm"], "/")+"; the default shrinks to a smaller job)")
		group     = fs.Int("group", 8, "checkpoint group size (0 = regular, all at once)")
		proto     = fs.String("protocol", "group", "coordination protocol: "+strings.Join(protocols, ", "))
		at        = fs.String("at", "10", "checkpoint issuance time(s) in seconds; a comma-separated list runs one cell per time")
		foot      = fs.Int64("footprint", 180, "per-process footprint in MB ("+strings.Join(readers["footprint"], "/")+")")
		iters     = fs.Int("iters", 900, "iterations ("+strings.Join(readers["iters"], "/")+")")
		dynamic   = fs.Bool("dynamic", false, "dynamic group formation from the communication pattern")
		helper    = fs.Bool("helper", true, "enable the passive-coordination helper thread")
		verbose   = fs.Bool("v", false, "print per-rank checkpoint records")
		showTrace = fs.Bool("trace", false, "print the protocol timeline")
		traceJSON = fs.String("trace-json", "", "write the full event timeline as JSON Lines to this file")
		traceChr  = fs.String("trace-chrome", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) to this file")
		metrics   = fs.String("metrics-json", "", "write the run's metrics registry as JSON to this file")
		mtbf      = fs.Float64("mtbf", 0, "run to completion under failures with this MTBF in seconds (restartable workloads)")
		interval  = fs.Float64("interval", 0, "periodic checkpoint interval in seconds (with -mtbf or -faults)")
		seed      = fs.Int64("seed", 1, "failure-injection seed (with -mtbf or -faults)")
		faults    = fs.String("faults", "", "fault scenario: a spec like 'crash@12s;outage@20s+5s;mtbf=90s' or a file holding one")
		storeMode = fs.String("storage", "central", "checkpoint storage: "+tier.ModeNames("")+" (node-local disk staging)")
		replicas  = fs.Int("replicas", 0, "RAM-tier partner replicas per rank (with -storage ram or hierarchy; 0 = default 2)")
		cpuProf   = fs.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
		memProf   = fs.String("memprofile", "", "write a host allocation profile (pprof) of the run to this file")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mtbfT, mtbfErr := seconds("mtbf", *mtbf)
	intervalT, intervalErr := seconds("interval", *interval)
	if err := cmp.Or(mtbfErr, intervalErr); err != nil {
		return err
	}
	failureRun := mtbfT > 0 || *faults != ""

	// The names come first, so that a misspelt one is reported as such.
	kind := protocol.Kind(*proto)
	if !slices.Contains(protocols, *proto) {
		return fmt.Errorf("unknown -protocol %q (want one of %s)", *proto, strings.Join(protocols, ", "))
	}
	mode := tier.Mode(*storeMode)
	if !mode.Valid() {
		return fmt.Errorf("unknown -storage %q (want %s)", *storeMode, tier.ModeNames("or"))
	}
	wi := slices.Index(names, *name)
	if wi < 0 {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	wl := workloads[wi]
	// Multiple -at values form a cell matrix run on the Runner's worker pool.
	ats, err := parseTimes(*at)
	if err != nil {
		return err
	}
	multiCell := len(ats) > 1

	// A flag that only some runs read is rejected, not ignored, where this
	// run does not read it: a silently dropped -interval or -n would
	// misreport what the run measured. A failure run is one serial restart
	// chain that checkpoints every -interval, so it reads no -at.
	reads := "none of the shape flags (its size is fixed)"
	if len(wl.reads) > 0 {
		reads = "only -" + strings.Join(wl.reads, ", -")
	}
	reads = "does not apply to -workload " + wl.name + ", which reads " + reads
	for _, r := range []struct {
		flag    string
		applies bool
		why     string
	}{
		{"interval", failureRun, "only applies to failure runs; add -mtbf or -faults"},
		{"seed", failureRun, "only applies to failure runs; add -mtbf or -faults"},
		{"at", !failureRun, "does not apply to failure runs, which checkpoint every -interval"},
		{"v", !failureRun && !multiCell, "only applies to single-cell measurements; use -trace for the timeline"},
		{"group", kind == protocol.Group, fmt.Sprintf("only applies to -protocol group; %s fixes the group structure", kind)},
		{"dynamic", kind == protocol.Group, fmt.Sprintf("only applies to -protocol group; %s does not form groups", kind)},
		{"helper", kind != protocol.Uncoordinated, "does not apply to -protocol uncoord; there is no passive-coordination state to bound"},
		{"replicas", mode.Has(tier.RAM), fmt.Sprintf("only applies to -storage ram or hierarchy; %s has no RAM replication tier", mode)},
		{"n", slices.Contains(wl.reads, "n"), reads},
		{"comm", slices.Contains(wl.reads, "comm"), reads},
		{"footprint", slices.Contains(wl.reads, "footprint"), reads},
		{"iters", slices.Contains(wl.reads, "iters"), reads},
	} {
		if set[r.flag] && !r.applies {
			return fmt.Errorf("-%s %s", r.flag, r.why)
		}
	}
	if kind != protocol.Group {
		*group = 0 // one group, or none
	}
	if *foot < 0 {
		return fmt.Errorf("-footprint must not be negative, got %d", *foot)
	}
	if *iters <= 0 {
		return fmt.Errorf("-iters must be positive, got %d", *iters)
	}

	// The default -comm and -group shrink to a smaller job; an explicit
	// -group must fit (the workload checks -comm, cfg.Validate the rest).
	if !set["comm"] {
		*comm = min(*comm, *n)
	}
	w, ranks := wl.build(*n, *comm, *iters, *foot)
	if !set["group"] {
		*group = min(*group, ranks)
	} else if *group > ranks {
		return fmt.Errorf("-group %d exceeds the job size %d", *group, ranks)
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
		return err
	}
	stop, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = stop(err) }()
	out := outputs{trace: *showTrace, jsonl: *traceJSON, chrome: *traceChr, metrics: *metrics}

	if failureRun {
		rw, ok := w.(workload.Restartable)
		if !ok {
			return fmt.Errorf("-mtbf/-faults require a restartable workload (ring, allgather, stencil)")
		}
		spec := *faults // a scenario spec, or the name of a file holding one
		if data, err := os.ReadFile(spec); err == nil {
			spec = strings.TrimSpace(string(data))
		}
		scn, err := fault.Parse(spec)
		if err != nil {
			return err
		}
		if set["mtbf"] {
			scn.MTBF = mtbfT
		}
		if set["seed"] || scn.Seed == 0 {
			scn.Seed = *seed
		}
		iv := intervalT
		if iv <= 0 {
			if scn.MTBF <= 0 {
				return fmt.Errorf("-faults without a scenario MTBF needs an explicit -interval")
			}
			iv = scn.MTBF / 4
		}
		rec := out.record(nil)
		fr, err := harness.RunScenario(cfg, rw, scn, iv, rec.bus)
		if err := out.export([]*recording{rec}, err); err != nil {
			return err
		}
		header(stdout, w, cfg)
		if scn.MTBF > 0 {
			fmt.Fprintf(stdout, "checkpoint interval:   %v (MTBF %v)\n", iv, scn.MTBF)
		} else {
			fmt.Fprintf(stdout, "checkpoint interval:   %v\n", iv)
		}
		if len(scn.Faults) > 0 {
			fmt.Fprintf(stdout, "injected faults:       %s\n", scn.String())
		}
		fmt.Fprintf(stdout, "wall time to finish:   %v\n", fr.Wall)
		fmt.Fprintf(stdout, "failures survived:     %d\n", fr.Failures)
		fmt.Fprintf(stdout, "checkpoints completed: %d\n", fr.Checkpoints)
		if fr.CycleAborts > 0 {
			fmt.Fprintf(stdout, "cycles aborted:        %d\n", fr.CycleAborts)
		}
		if fr.CorruptSkipped > 0 {
			fmt.Fprintf(stdout, "corrupt epochs skipped: %d\n", fr.CorruptSkipped)
		}
		if mode.Tiered() && fr.Failures > 0 {
			by := map[tier.Level]int{tier.RAM: fr.RecoveredRAM, tier.Local: fr.RecoveredLocal,
				tier.Burst: fr.RecoveredBurst, tier.Central: fr.RecoveredCentral}
			fmt.Fprint(stdout, "recovered from tiers: ")
			for _, level := range mode.Levels() {
				fmt.Fprintf(stdout, " %s=%d", level, by[level])
			}
			fmt.Fprintln(stdout)
		}
		if *showTrace {
			fmt.Fprintln(stdout, "\nfault injections:")
			for _, e := range rec.mem.ByLayer(obs.LayerFault) {
				fmt.Fprintln(stdout, e)
			}
		}
		return nil
	}

	// Each -at time is one cell, measured on the Runner's worker pool with a
	// recording of its own; an issuance time at or past the failure-free end
	// would checkpoint a finished job, which measures nothing.
	runner := harness.NewRunner(0)
	base, err := runner.Baseline(cfg, w)
	if err != nil {
		return err
	}
	recs := make([]*recording, len(ats))
	for i, t := range ats {
		var c *cell
		if multiCell {
			c = &cell{i, w.Name(), cfg.CR.GroupSize, t}
		}
		recs[i] = out.record(c)
		if t >= base {
			return recs[i].wrap(fmt.Errorf("-at %v is not before the job's failure-free end at %v", t, base))
		}
	}
	results := make([]harness.Result, len(ats))
	err = runner.ForEach(len(ats), func(i int) (err error) {
		results[i], err = runner.Measure(harness.Cell{Config: cfg, Workload: w, IssuedAt: ats[i]}, recs[i].bus)
		return recs[i].wrap(err)
	})
	if err := out.export(recs, err); err != nil {
		return err
	}
	header(stdout, w, cfg)
	if multiCell {
		for i, res := range results {
			fmt.Fprintf(stdout, "cell %d: at=%-6v baseline=%v with=%v delay=%v total=%v\n",
				i, res.IssuedAt, res.Baseline, res.WithCkpt, res.EffectiveDelay(), res.Total())
		}
		if *showTrace {
			fmt.Fprintln(stdout, "\nmerged timeline:")
			for _, rec := range recs {
				fmt.Fprintf(stdout, "=== %s ===\n", rec.cell)
				rec.mem.Render(stdout)
			}
		}
		return nil
	}
	res, mem := results[0], recs[0].mem
	fmt.Fprintf(stdout, "checkpoint issued at:  %v\n", res.IssuedAt)
	fmt.Fprintf(stdout, "baseline completion:   %v\n", res.Baseline)
	fmt.Fprintf(stdout, "with checkpoint:       %v\n", res.WithCkpt)
	fmt.Fprintf(stdout, "effective ckpt delay:  %v\n", res.EffectiveDelay())
	fmt.Fprintf(stdout, "individual ckpt time:  %v mean, %v max\n",
		res.Report.MeanIndividual(), res.Report.MaxIndividual())
	fmt.Fprintf(stdout, "total ckpt time:       %v\n", res.Total())
	if mode.Tiered() {
		fmt.Fprintf(stdout, "vulnerability window:  %v\n", res.Report.VulnerabilityWindow())
	}
	fmt.Fprintf(stdout, "storage share:         %.1f%%\n", 100*res.Report.StorageShare())
	fmt.Fprintf(stdout, "groups:                %v\n", res.Report.Groups)
	if *showTrace {
		fmt.Fprintln(stdout, "\ncycle gantt:")
		fmt.Fprint(stdout, res.Report.Gantt(72))
		fmt.Fprintln(stdout, "\nprotocol timeline (cr layer):")
		for _, e := range mem.ByLayer(obs.LayerCR) {
			fmt.Fprintln(stdout, e)
		}
		fmt.Fprintln(stdout, "\nevent counts by rank and layer:")
		fmt.Fprint(stdout, mem.Summary())
	}
	if *verbose {
		fmt.Fprintln(stdout, "\nper-rank records:")
		for rank, rec := range res.Report.Records {
			fmt.Fprintf(stdout, "  rank %2d group %d: stop %v, write %v..%v (%.0f MB), resume %v, downtime %v\n",
				rank, rec.Group, rec.SafePointAt, rec.WriteStart, rec.WriteEnd,
				float64(rec.Footprint)/(1<<20), rec.ResumeAt, rec.Individual())
		}
	}
	return nil
}

// outputs names what a run records: the -trace timeline, and the -trace-json,
// -trace-chrome and -metrics-json files ("" when not asked for).
type outputs struct {
	trace                  bool
	jsonl, chrome, metrics string
}

// cell is one cell of an -at list: its JSONL header object in the merged
// trace, and as a string its Chrome process name (its PID is Index+1), its
// timeline line and the prefix of its errors. None of these depends on the
// schedule, so no merged output does.
type cell struct {
	Index    int      `json:"cell"`
	Workload string   `json:"workload"`
	Group    int      `json:"group"`
	At       sim.Time `json:"at"`
}

func (c *cell) String() string {
	return fmt.Sprintf("cell %d: %s group=%d at=%v", c.Index, c.Workload, c.Group, c.At)
}

// recording is what one simulation records: its bus, nil when no output is
// asked for, and the sinks the flags name.
type recording struct {
	cell   *cell // nil for a run alone
	bus    *obs.Bus
	mem    *obs.MemorySink
	jsonl  *obs.JSONLSink
	lines  bytes.Buffer // what jsonl wrote
	chrome *obs.ChromeSink
}

// record builds the recording of one simulation: c is its cell in an -at
// list, or nil. With no output asked for the bus stays nil, which keeps the
// instrumented hot paths on their single-pointer-check disabled route.
func (o outputs) record(c *cell) *recording {
	rec := &recording{cell: c}
	if o == (outputs{}) {
		return rec
	}
	rec.bus = obs.NewBus()
	if o.trace {
		rec.mem = &obs.MemorySink{}
		rec.bus.AddSink(rec.mem)
	}
	if o.jsonl != "" {
		rec.jsonl = obs.NewJSONL(&rec.lines)
		rec.bus.AddSink(rec.jsonl)
	}
	if o.chrome != "" {
		rec.chrome = obs.NewChrome()
		if c != nil {
			rec.chrome.PID, rec.chrome.ProcessName = c.Index+1, c.String()
		}
		rec.bus.AddSink(rec.chrome)
	}
	return rec
}

// wrap names a list's cell in err.
func (r *recording) wrap(err error) error {
	if err != nil && r.cell != nil {
		err = fmt.Errorf("%s: %w", r.cell, err)
	}
	return err
}

// export writes the files o names from recs, one recording a simulation in
// cell order, after the run that recorded them returned runErr: the JSONL
// traces one after the other, each under its cell's header object in a list,
// the Chrome traces as one file, and the aggregate of the metrics. A failed
// run writes what it recorded, its timeline being the one worth reading; a
// run that failed having recorded nothing, input the workload rejects at
// launch, writes no file, as a flag ckptsim rejects itself writes none. It
// returns the first export error, or else runErr.
func (o outputs) export(recs []*recording, runErr error) error {
	agg, chromes := obs.NewAggregate(), make([]*obs.ChromeSink, len(recs))
	for i, rec := range recs {
		agg.Merge(rec.bus.Metrics().Snapshot())
		chromes[i] = rec.chrome
	}
	metrics := agg.Snapshot()
	if runErr != nil && len(metrics.Counters) == 0 {
		return runErr
	}
	return cmp.Or(cli.WriteFile(o.jsonl, func(w io.Writer) (err error) {
		for _, rec := range recs {
			if rec.cell != nil {
				err = cmp.Or(err, json.NewEncoder(w).Encode(rec.cell))
			}
			_, werr := w.Write(rec.lines.Bytes())
			err = cmp.Or(err, werr, rec.jsonl.Err())
		}
		return err
	}), cli.WriteFile(o.chrome, func(w io.Writer) error { return obs.RenderChromeMulti(w, chromes) }),
		cli.WriteFile(o.metrics, metrics.WriteJSON), runErr)
}

// parseTimes parses the -at flag: one or more comma-separated checkpoint
// issuance times in seconds.
func parseTimes(arg string) ([]sim.Time, error) {
	parts := strings.Split(arg, ",")
	out := make([]sim.Time, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("-at: %q is not a number", p)
		}
		if out[i], err = seconds("at", v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// seconds converts a seconds-valued flag to simulated time, rejecting what
// the int64-nanosecond clock cannot represent: NaN, ±Inf, and magnitudes
// that overflow it. Negative times are rejected as well.
func seconds(flagName string, v float64) (sim.Time, error) {
	if math.IsNaN(v) || v*float64(sim.Second) >= math.MaxInt64 {
		return 0, fmt.Errorf("-%s must be a finite time below %v, got %v", flagName, sim.Time(math.MaxInt64), v)
	}
	if v < 0 {
		return 0, fmt.Errorf("-%s must not be negative, got %v", flagName, v)
	}
	return sim.Seconds(v), nil
}

// header prints the lines every report starts with: what ran, under which
// protocol, and — for a multi-level storage stack — against which storage.
func header(stdout io.Writer, w workload.Workload, cfg harness.ClusterConfig) {
	fmt.Fprintf(stdout, "workload:              %s (%d ranks)\n", w.Name(), cfg.N)
	proto := "uncoordinated + sender-based message logging"
	switch group := cfg.CR.GroupSize; {
	case cfg.CR.Protocol == protocol.Uncoordinated:
	case cfg.CR.Dynamic:
		proto = fmt.Sprintf("group-based (dynamic formation, max size %d)", group)
	case group <= 0 || group >= cfg.N:
		proto = "regular coordinated (all at once)"
	default:
		proto = fmt.Sprintf("group-based (static groups of %d)", group)
	}
	fmt.Fprintf(stdout, "protocol:              %s\n", proto)
	switch mode := cfg.Tiers.Mode; {
	case mode.Has(tier.RAM):
		fmt.Fprintf(stdout, "storage:               %s (%d RAM replicas)\n", mode, cfg.Tiers.ReplicaCount())
	case mode.Tiered():
		fmt.Fprintf(stdout, "storage:               %s\n", mode)
	}
}
