package harness

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
	"gbcr/internal/workload/hpl"
)

// fig3Workload is the Figure 3 micro-benchmark workload at comm size 8.
func fig3Workload() workload.Workload {
	return workload.CommGroups{N: 32, CommGroupSize: 8, Iters: 900,
		Chunk: 100 * sim.Millisecond, FootprintMB: 180}
}

// TestRunnerMeasureMatchesSerial is the determinism contract on the paper's
// two sweep matrices: Measure on ForEach's workers must return results
// bit-identical to a serial Baseline and MeasureWithBaseline loop for the
// Figure 3 matrix (CommGroups micro-benchmark across checkpoint group sizes)
// and the Figure 5 matrix (HPL, 6 group sizes x 8 issuance times).
func TestRunnerMeasureMatchesSerial(t *testing.T) {
	hplW := hpl.PaperTimed()
	cases := []struct {
		name       string
		cfg        ClusterConfig
		w          workload.Workload
		groupSizes []int
		times      []sim.Time
	}{
		{
			name: "Fig3", cfg: PaperCluster(32), w: fig3Workload(),
			groupSizes: []int{0, 16, 8, 4, 2},
			times:      []sim.Time{10 * sim.Second},
		},
		{
			name: "Fig5", cfg: PaperCluster(hplW.P * hplW.Q), w: hplW,
			groupSizes: []int{0, 16, 8, 4, 2, 1},
			times: []sim.Time{20 * sim.Second, 30 * sim.Second, 40 * sim.Second,
				50 * sim.Second, 60 * sim.Second, 70 * sim.Second,
				80 * sim.Second, 90 * sim.Second},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cells []Cell
			for _, gs := range tc.groupSizes {
				for _, at := range tc.times {
					c := tc.cfg
					c.CR.GroupSize = gs
					cells = append(cells, Cell{Config: c, Workload: tc.w, IssuedAt: at})
				}
			}
			base, err := Baseline(tc.cfg, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			serial := make([]Result, len(cells))
			for i, c := range cells {
				if serial[i], err = MeasureWithBaseline(c.Config, c.Workload, c.IssuedAt, base); err != nil {
					t.Fatal(err)
				}
			}
			r := NewRunner(8)
			par := make([]Result, len(cells))
			err = r.ForEach(len(cells), func(i int) (err error) {
				par[i], err = r.Measure(cells[i], nil)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("parallel Measure differs from the serial loop:\nserial: %v\nparallel: %v", serial, par)
			}
		})
	}
}

// cacheStats reads the baseline cache's hits and misses after calls
// Baseline calls. Every miss added one entry, so every other call was a hit
// (which includes waiting on an in-flight computation of the same key).
func cacheStats(r *Runner, calls int) (hits, misses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return calls - len(r.baselines), len(r.baselines)
}

func TestRunnerWorkersDefault(t *testing.T) {
	if got, want := NewRunner(0).workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers %d, want GOMAXPROCS %d", got, want)
	}
	if got := NewRunner(-3).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative workers %d, want GOMAXPROCS", got)
	}
	if got := NewRunner(5).workers; got != 5 {
		t.Fatalf("workers %d, want 5", got)
	}
}

func TestBaselineCacheHits(t *testing.T) {
	r := NewRunner(4)
	cfg := PaperCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 50,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}

	first, err := r.Baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("cached baseline %v != first %v", again, first)
	}
	if hits, misses := cacheStats(r, 2); hits != 1 || misses != 1 {
		t.Fatalf("after identical repeat: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// CR settings are canonicalized out of the key: a baseline run never
	// starts a checkpoint cycle, so every group size shares one baseline.
	grouped := cfg
	grouped.CR.GroupSize = 4
	grouped.CR.Dynamic = true
	if _, err := r.Baseline(grouped, w); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cacheStats(r, 3); hits != 2 || misses != 1 {
		t.Fatalf("after CR-only change: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// So is the storage stack: a baseline writes no checkpoint.
	staged := cfg
	staged.Tiers = tier.Config{Mode: tier.ModeHierarchy, Replicas: 1}
	if _, err := r.Baseline(staged, w); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cacheStats(r, 4); hits != 3 || misses != 1 {
		t.Fatalf("after Tiers-only change: hits=%d misses=%d, want 3/1", hits, misses)
	}
}

func TestBaselineCacheMisses(t *testing.T) {
	base := PaperCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 50,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}

	wSlower := w
	wSlower.Iters = 60
	wFatter := w
	wFatter.FootprintMB = 20

	mutations := []struct {
		name string
		cfg  ClusterConfig
		w    workload.Workload
	}{
		{"storage aggregate bw", func() ClusterConfig { c := base; c.Storage.AggregateBW /= 2; return c }(), w},
		{"storage client bw", func() ClusterConfig { c := base; c.Storage.ClientBW /= 2; return c }(), w},
		{"fabric link bw", func() ClusterConfig { c := base; c.Fabric.LinkBW /= 2; return c }(), w},
		{"seed", func() ClusterConfig { c := base; c.Seed++; return c }(), w},
		{"storage droop", func() ClusterConfig { c := base; c.Storage.Droop *= 2; return c }(), w},
		{"mpi config", func() ClusterConfig { c := base; c.MPI.LogMessages = true; return c }(), w},
		{"workload iters", base, wSlower},
		{"workload footprint", base, wFatter},
	}
	baseKey := BaselineKey(base, w)
	for _, m := range mutations {
		if BaselineKey(m.cfg, m.w) == baseKey {
			t.Errorf("%s: key unchanged, cache would return a stale baseline", m.name)
		}
	}

	// And each distinct key is a real miss against a warm cache.
	r := NewRunner(2)
	if _, err := r.Baseline(base, w); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Baseline(base, wSlower); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cacheStats(r, 2); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", hits, misses)
	}
}

func TestRunnerErrorPropagation(t *testing.T) {
	r := NewRunner(2)
	bad := PaperCluster(8)
	bad.Storage.AggregateBW = 0
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 10,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}

	if _, err := r.Measure(Cell{Config: bad, Workload: w, IssuedAt: sim.Second}, nil); err == nil {
		t.Fatal("invalid config must error, not panic")
	}
	if _, err := r.Measure(Cell{Config: PaperCluster(8), Workload: w, IssuedAt: -sim.Second}, nil); err == nil {
		t.Fatal("negative issuance time must error")
	}

}

func TestForEachPanicBecomesError(t *testing.T) {
	err := NewRunner(3).ForEach(6, func(i int) error {
		if i == 4 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "cell 4 panicked: boom") {
		t.Fatalf("panic not converted: %v", err)
	}
}

func TestForEachFirstErrorInIndexOrder(t *testing.T) {
	sentinel := errors.New("sentinel")
	var calls [8]atomic.Int32
	err := NewRunner(4).ForEach(len(calls), func(i int) error {
		calls[i].Add(1)
		if i >= 3 {
			return fmt.Errorf("index %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "index 3") {
		t.Fatalf("want the index-3 error regardless of schedule, got: %v", err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("ForEach must run every index exactly once, index %d ran %d times", i, n)
		}
	}
	if err := NewRunner(4).ForEach(0, func(int) error { t.Error("ran with n == 0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerConcurrentBaselineDedup hammers one cache key from many
// goroutines: the baseline simulation must run exactly once, everyone else
// waits on the in-flight entry.
func TestRunnerConcurrentBaselineDedup(t *testing.T) {
	r := NewRunner(8)
	cfg := PaperCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 50,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}
	times := make([]sim.Time, 16)
	err := r.ForEach(len(times), func(i int) error {
		var err error
		times[i], err = r.Baseline(cfg, w)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range times {
		if ti != times[0] {
			t.Fatalf("goroutine %d saw baseline %v, others %v", i, ti, times[0])
		}
	}
	if hits, misses := cacheStats(r, len(times)); misses != 1 || hits != len(times)-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, len(times)-1)
	}
}
