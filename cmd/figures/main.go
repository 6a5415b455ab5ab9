// Command figures regenerates every figure in the paper's evaluation
// section from the simulation and prints the data series as text tables or,
// with -json, as machine-readable JSON.
//
// Usage:
//
//	figures [-only fig1,fig3,fig4,fig5,fig6,fig7,ablations,extensions,extprotocols,exttiers] [-json] [-workers N]
//	figures -only fig3 -cpuprofile cpu.out -memprofile mem.out
//
// Sweep matrices run concurrently on a worker pool bounded by GOMAXPROCS;
// -workers overrides the bound (1 forces serial execution). Results are
// bit-identical at any worker count. Errors exit 1 with a one-line message,
// flags that do not parse 2 with the usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"gbcr/cmd/internal/cli"
	"gbcr/internal/figures"
	"gbcr/internal/obs"
)

// figureJSON is one named figure in the -json output; multi-table entries
// (ablations, extensions) carry all their tables.
type figureJSON struct {
	Name   string           `json:"name"`
	Tables []*figures.Table `json:"tables"`
}

func main() {
	os.Exit(cli.Status("figures", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// run is one figures invocation: it writes the tables to stdout and their
// timings to stderr, and returns the reason it rejected the input or failed.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset: fig1,fig3,fig4,fig5,fig6,fig7,ablations,extensions,extprotocols,exttiers (default: all)")
	asJSON := fs.Bool("json", false, "emit every figure's data series as JSON on stdout")
	workers := fs.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial)")
	metrics := fs.String("metrics-json", "", "write aggregated per-layer metrics across all measured cells as JSON to this file")
	cpuProf := fs.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	memProf := fs.String("memprofile", "", "write a host allocation profile (pprof) of the run to this file")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must not be negative, got %d", *workers)
	}
	known := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "ablations", "extensions", "extprotocols", "exttiers"}
	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			name := strings.TrimSpace(f)
			if !slices.Contains(known, name) {
				return fmt.Errorf("unknown figure %q in -only (want %s)", name, strings.Join(known, ", "))
			}
			want[name] = true
		}
	}

	stop, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = stop(err) }()

	g := figures.NewGenerator(*workers)
	var agg *obs.Aggregate
	if *metrics != "" {
		// The merge is commutative, so the aggregate is identical at any
		// worker count even though cells finish in scheduler order.
		agg = obs.NewAggregate()
		g.R.SetAggregate(agg)
	}
	one := func(t *figures.Table, err error) ([]*figures.Table, error) { return []*figures.Table{t}, err }
	var fig5 *figures.Table // Fig 6 reads Fig 5's table, made once
	figure := func(name string) ([]*figures.Table, error) {
		switch name {
		case "fig1":
			return one(g.Fig1())
		case "fig3":
			return one(g.Fig3())
		case "fig4":
			return one(g.Fig4())
		case "fig7":
			return one(g.Fig7())
		case "ablations":
			return g.Ablations()
		case "extensions":
			return g.Extensions()
		case "extprotocols":
			return one(g.ExtensionProtocols())
		case "exttiers":
			return one(g.ExtensionTiers())
		}
		var err error // fig5 or fig6
		if fig5 == nil {
			fig5, err = g.Fig5()
		}
		if name == "fig6" && err == nil {
			return one(g.Fig6(fig5), nil)
		}
		return one(fig5, err)
	}
	out := []figureJSON{}
	for _, name := range known {
		if len(want) > 0 && !want[name] {
			continue
		}
		start := time.Now()
		tables, err := figure(name)
		if err != nil {
			return err
		}
		if *asJSON {
			out = append(out, figureJSON{Name: name, Tables: tables})
		} else {
			for _, t := range tables {
				fmt.Fprintln(stdout, t)
			}
		}
		fmt.Fprintf(stderr, "[%s regenerated in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return cli.WriteFile(*metrics, agg.Snapshot().WriteJSON)
}
