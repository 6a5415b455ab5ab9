package gbcr

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchRecord holds BENCH_results.json, written by `make bench-record`,
// to the benchmark BENCHMARK.json declares: exactly one entry per declared
// workload, each a correct bench/run.sh run of that workload that carries
// its machine record and at least three timed repetitions.
func TestBenchRecord(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
	}
	var record map[string]struct {
		Report struct {
			Machine struct {
				Nproc     int    `json:"nproc"`
				GoVersion string `json:"go_version"`
			}
			Run struct {
				Workload string
				RepWallS []float64 `json:"rep_wall_s"`
			}
		}
		Result struct{ Correct bool }
	}
	read := func(path string, v any) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	read("BENCHMARK.json", &decl)
	read("BENCH_results.json", &record)
	if len(record) != len(decl.Workloads) {
		t.Errorf("BENCH_results.json has %d entries, BENCHMARK.json declares %d workloads", len(record), len(decl.Workloads))
	}
	for _, w := range decl.Workloads {
		e, ok := record[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: not recorded", w.Name)
		case e.Report.Run.Workload != w.Name:
			t.Errorf("%s: the entry records workload %q", w.Name, e.Report.Run.Workload)
		case !e.Result.Correct:
			t.Errorf("%s: recorded run is not correct", w.Name)
		case len(e.Report.Run.RepWallS) < 3:
			t.Errorf("%s: %d timed repetitions, want at least 3", w.Name, len(e.Report.Run.RepWallS))
		case e.Report.Machine.Nproc <= 0 || e.Report.Machine.GoVersion == "":
			t.Errorf("%s: no machine record", w.Name)
		}
	}
}
