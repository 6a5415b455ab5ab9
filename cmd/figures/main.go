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
// bit-identical at any worker count. Errors exit with status 1 and a
// one-line message.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"gbcr/cmd/internal/prof"
	"gbcr/internal/figures"
	"gbcr/internal/obs"
)

// figureJSON is one named figure in the -json output; multi-table entries
// (ablations, extensions) carry all their tables.
type figureJSON struct {
	Name   string           `json:"name"`
	Tables []*figures.Table `json:"tables"`
}

// stopProfiles ends the -cpuprofile and -memprofile profiles once they have
// started; fail calls it, so a failed run still writes them.
var stopProfiles = func() error { return nil }

func fail(err error) {
	if perr := stopProfiles(); perr != nil {
		err = fmt.Errorf("%w; writing profiles: %v", err, perr)
	}
	fmt.Fprintf(os.Stderr, "figures: %v\n", err)
	os.Exit(1)
}

func main() {
	only := flag.String("only", "", "comma-separated subset: fig1,fig3,fig4,fig5,fig6,fig7,ablations,extensions,extprotocols,exttiers (default: all)")
	asJSON := flag.Bool("json", false, "emit every figure's data series as JSON on stdout")
	workers := flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial)")
	metrics := flag.String("metrics-json", "", "write aggregated per-layer metrics across all measured cells as JSON to this file")
	cpuProf := flag.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	memProf := flag.String("memprofile", "", "write a host allocation profile (pprof) of the run to this file")
	flag.Parse()
	if *workers < 0 {
		fail(fmt.Errorf("-workers must not be negative, got %d", *workers))
	}
	known := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "ablations", "extensions", "extprotocols", "exttiers"}
	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			name := strings.TrimSpace(f)
			if !slices.Contains(known, name) {
				fail(fmt.Errorf("unknown figure %q in -only (want %s)", name, strings.Join(known, ", ")))
			}
			want[name] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	stopProfiles = stop
	defer func() {
		if err := stop(); err != nil {
			fail(err)
		}
	}()

	g := figures.NewGenerator(*workers)
	var agg *obs.Aggregate
	if *metrics != "" {
		// The merge is commutative, so the aggregate is identical at any
		// worker count even though cells finish in scheduler order.
		agg = obs.NewAggregate()
		g.R.SetAggregate(agg)
	}
	out := []figureJSON{}

	run := func(name string, fn func() ([]*figures.Table, error)) {
		if !sel(name) {
			return
		}
		start := time.Now()
		tables, err := fn()
		if err != nil {
			fail(err)
		}
		if *asJSON {
			out = append(out, figureJSON{Name: name, Tables: tables})
		} else {
			for _, t := range tables {
				fmt.Println(t)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	one := func(fn func() (*figures.Table, error)) func() ([]*figures.Table, error) {
		return func() ([]*figures.Table, error) {
			t, err := fn()
			if err != nil {
				return nil, err
			}
			return []*figures.Table{t}, nil
		}
	}

	run("fig1", one(g.Fig1))
	run("fig3", one(g.Fig3))
	run("fig4", one(g.Fig4))
	var fig5 *figures.Table
	run("fig5", one(func() (*figures.Table, error) {
		var err error
		fig5, err = g.Fig5()
		return fig5, err
	}))
	run("fig6", one(func() (*figures.Table, error) {
		if fig5 == nil {
			var err error
			fig5, err = g.Fig5()
			if err != nil {
				return nil, err
			}
		}
		return g.Fig6(fig5), nil
	}))
	run("fig7", one(g.Fig7))
	run("ablations", g.Ablations)
	run("extensions", g.Extensions)
	run("extprotocols", one(g.ExtensionProtocols))
	run("exttiers", one(g.ExtensionTiers))

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	}
	if *metrics != "" {
		var buf bytes.Buffer
		if err := agg.Snapshot().WriteJSON(&buf); err != nil {
			fail(err)
		}
		if err := os.WriteFile(*metrics, buf.Bytes(), 0o644); err != nil {
			fail(err)
		}
	}
}
