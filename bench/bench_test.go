package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smallRun runs one workload at shrunken sizes: one set-up round, one
// repetition, checked against the pins given.
func smallRun(t *testing.T, w workloadSpec, p pins, trace bool) *runResult {
	t.Helper()
	cfg := runConfig{w: w, seed: defaultSeed, small: true, warmups: 1, reps: 1, pins: p, start: time.Now(), ladderDiv: 1 << 30}
	var res *runResult
	var err error
	if trace {
		res, err = measureTraced(cfg, "")
	} else {
		res, err = measure(cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func checkMetrics(t *testing.T, workload string, got []metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics, want %d", workload, len(got), len(want))
	}
	for i, m := range got {
		if m.Name != want[i].name || m.Unit != want[i].unit {
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", workload, i, m.Name, m.Unit, want[i].name, want[i].unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", workload, m.Name, m.Value)
		}
	}
}

func endToEndDefs() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		out = append(out, metricDef{m.name, m.unit})
	}
	return out
}

// TestWorkloads runs every workload small: the pinned digest must verify, a
// wrong pin must fail every operation it covers, and the traced repetition
// must reproduce the untraced digest.
func TestWorkloads(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	perLayer := append(ladderDefs(), tracedDefs()...)
	for _, w := range workloads {
		res := smallRun(t, w, p, false)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		checkMetrics(t, w.name, res.Metrics, endToEndDefs())
		for _, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, m.Value)
			}
		}

		wrong := pins{}
		for k, v := range p {
			wrong[k] = v
		}
		key := pinKey(w.name, true)
		wrong[key] = pin{Setup: p[key].Setup, Rep: "00" + p[key].Rep[2:]}
		if bad := smallRun(t, w, wrong, false); bad.Failed == 0 {
			t.Errorf("%s: a wrong pinned digest did not fail the run", w.name)
		}

		traced := smallRun(t, w, p, true)
		if traced.Failed != 0 {
			t.Errorf("%s: traced run failed %d of %d operations: %v", w.name, traced.Failed, traced.Attempted, traced.Errors)
		}
		if traced.Digest != res.Digest {
			t.Errorf("%s: traced digest %+v, untraced %+v", w.name, traced.Digest, res.Digest)
		}
		checkMetrics(t, w.name, traced.Metrics, perLayer)
		var explained float64
		for _, m := range traced.Metrics {
			if m.Name == "ladder.explained_share" || m.Name == "ladder.unexplained_share" {
				explained += m.Value
			}
		}
		if math.Abs(explained-1) > 1e-9 {
			t.Errorf("%s: explained + unexplained share = %v, want 1", w.name, explained)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark's own tables and
// to the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(e entry, wantUnit bool) {
		if !name.MatchString(e.Name) || seen[e.Name] {
			t.Errorf("bad or repeated name %q", e.Name)
		}
		seen[e.Name] = true
		if wantUnit && (!unit.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher")) {
			t.Errorf("%s: unit %q, better %q", e.Name, e.Unit, e.Better)
		}
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, e := range b.Workloads {
		check(e, false)
		if e.Name != workloads[i].name || e.Why == "" || len(e.Why) > 200 {
			t.Errorf("workload %d is %q (why: %d chars), want %q", i, e.Name, len(e.Why), workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, e := range b.EndToEnd {
		check(e, true)
		want := endToEnd[i]
		if e.Name != want.name || e.Unit != want.unit || e.Better != "lower" || e.Bound == nil || *e.Bound != want.bound || *e.Bound > 0.25 {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, e, want)
		}
	}
	perLayer := append(ladderDefs(), tracedDefs()...)
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, e := range b.PerLayer {
		check(e, true)
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit || e.Bound != nil {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, e, perLayer[i])
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" || len(b.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", b.RunSeconds, b.Paths, b.Command)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the driver computes spreads with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{2, 4, 4, 5, 9, 11, 12, 13}, [3]float64{4, 7, 11.75}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestCompareSets checks the self-check's rule on made-up sets: equal sets
// pass, a median past its bound or a spread past its bound is reported.
func TestCompareSets(t *testing.T) {
	set := func(wall float64) map[string][]float64 {
		m := map[string][]float64{}
		for _, e := range endToEnd {
			for i := 0; i < 8; i++ {
				m[e.name] = append(m[e.name], 100+float64(i)*0.1)
			}
		}
		for i := range m["wall_s"] {
			m["wall_s"][i] *= wall
		}
		return m
	}
	if bad := compareSets("w", set(1), set(1)); len(bad) != 0 {
		t.Errorf("equal sets reported %v", bad)
	}
	slower := 1 + endToEnd[0].bound + 0.05 // wall_s past its bound
	if bad := compareSets("w", set(1), set(slower)); len(bad) != 1 {
		t.Errorf("a set B slower by %.0f%% reported %v, want one violation", 100*(slower-1), bad)
	}
	if bad := compareSets("w", set(slower), set(1)); len(bad) != 0 {
		t.Errorf("a faster set B reported %v", bad)
	}
	noisy := set(1)
	noisy["alloc_mb"] = []float64{90, 95, 100, 100, 100, 100, 105, 110}
	if bad := compareSets("w", set(1), noisy); len(bad) != 1 {
		t.Errorf("a set with a 10%% alloc spread reported %v, want one violation", bad)
	}
}
