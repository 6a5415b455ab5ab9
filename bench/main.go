// Command bench is the repository's benchmark: five closed-loop workloads
// over the whole simulator stack, five host-side end-to-end metrics per
// workload, and a per-layer ladder plus a traced run that explain them.
// README.md in this directory is the definition; BENCHMARK.json at the
// repository root is the machine-readable summary.
//
// One process runs one workload:
//
//	bench -workload hpl_sweep -seed 1 -seconds 10 -trace 0   # end-to-end metrics
//	bench -workload hpl_sweep -seed 1 -seconds 10 -trace 1   # per-layer metrics
//	bench -ladder                                            # the ladder at full size
//	bench -selfcheck 8                                       # A/A test of the benchmark itself
//	bench -update-digests                                    # re-pin testdata/digests.json
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it is the full report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart estimates when the process was created from its age in
// /proc, so set-up time includes runtime and package initialisation. Where
// /proc is missing it falls back to now.
func processStart() time.Time {
	now := time.Now()
	stat, err1 := os.ReadFile("/proc/self/stat")
	up, err2 := os.ReadFile("/proc/uptime")
	if err1 != nil || err2 != nil {
		return now
	}
	// Field 22 is the start time in clock ticks since boot; the command name
	// in field 2 may hold spaces, so count from the closing parenthesis.
	rest := string(stat)[strings.LastIndexByte(string(stat), ')')+1:]
	fields := strings.Fields(rest)
	upFields := strings.Fields(string(up))
	if len(fields) < 20 || len(upFields) < 1 {
		return now
	}
	ticks, err1 := strconv.ParseFloat(fields[19], 64)
	uptime, err2 := strconv.ParseFloat(upFields[0], 64)
	if err1 != nil || err2 != nil {
		return now
	}
	const ticksPerSecond = 100 // USER_HZ on every Linux this runs on
	age := uptime - ticks/ticksPerSecond
	if age < 0 || age > 60 {
		return now
	}
	return now.Add(-time.Duration(age * float64(time.Second)))
}

// result is the last line of output: the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(attempted, failed int, metrics []metric) result {
	r := result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(metrics)),
	}
	for _, m := range metrics {
		r.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	return r
}

// printJSON writes v as one line on standard output.
func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	ladder   bool
	self     int
	update   bool
}

func main() {
	start := processStart()
	// One simulation is one logical thread handing off between goroutines; a
	// second P only adds cross-thread wake-ups and concurrent-GC interference
	// (measured: same work 10-20 % slower and three times the spread).
	runtime.GOMAXPROCS(1)

	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed (ClusterConfig.Seed)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure: timed repetitions continue until this much time is measured")
	flag.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics; 1 runs traced repetitions and the quick ladder and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the last traced repetition's spans to this file as JSON")
	flag.BoolVar(&o.ladder, "ladder", false, "run the per-layer ladder at full size and print its metrics")
	flag.IntVar(&o.self, "selfcheck", 0, "run two interleaved sets of N runs of every workload and judge them by the bounds")
	flag.BoolVar(&o.update, "update-digests", false, "re-derive and rewrite "+pinsFile+" for -workload (or all); run from the bench directory")
	flag.Parse()
	if err := run(o, start); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(o options, start time.Time) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	switch {
	case o.update:
		names := workloadNames()
		if o.workload != "" {
			names = []string{o.workload}
		}
		return updatePins(names)
	case o.self > 0:
		return selfCheck(o.self, o.seconds)
	case o.ladder:
		m := startMachine()
		metrics, err := runLadder(1)
		if err != nil {
			return err
		}
		m.finish()
		if err := printJSON(map[string]any{"machine": m}); err != nil {
			return err
		}
		return printJSON(newResult(len(metrics), 0, metrics))
	}

	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	m := startMachine()
	cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, pins: pins, start: start}
	var res *runResult
	if o.trace == 1 {
		res, err = measureTraced(cfg, o.traceOut)
	} else {
		res, err = measure(cfg)
	}
	if err != nil {
		return err
	}
	m.finish()
	if err := printJSON(map[string]any{"machine": m, "run": res}); err != nil {
		return err
	}
	if err := printJSON(newResult(res.Attempted, res.Failed, res.Metrics)); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
	return nil
}
