package motif

import (
	"fmt"
	"strings"
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// newJob builds a kernel and n-rank job, failing the test on wiring errors.
func newJob(t testing.TB, n int) (*sim.Kernel, *mpi.Job) {
	t.Helper()
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := mpi.NewJob(k, f, mpi.DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	return k, j
}

// launch starts w on j, failing the test on a launch error.
func launch(t testing.TB, w workload.Workload, j *mpi.Job) workload.Instance {
	t.Helper()
	inst, err := w.Launch(j)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func testMine() Mine {
	return Mine{Graphs: 24, Vertices: 12, Degree: 3, Labels: 4, MinSup: 8, MaxLen: 3, Seed: 11}
}

func TestSerialMineFindsPatterns(t *testing.T) {
	freq := testMine().MineSerial()
	if len(freq) == 0 {
		t.Fatal("no frequent patterns on the synthetic dataset")
	}
	// Single labels must dominate longer patterns in support.
	//lint:allow-simdeterminism order-independent verification; every entry is checked
	for pat, sup := range freq {
		if sup < 8 || sup > 24 {
			t.Fatalf("pattern %q support %d out of range", pat, sup)
		}
	}
}

// TestParallelMatchesSerial: the parallel miner finds the serial pattern set
// on every job size, with and without per-level compute.
func TestParallelMatchesSerial(t *testing.T) {
	want := testMine().MineSerial()
	for _, n := range []int{1, 2, 3, 4, 8} {
		for _, lc := range []sim.Time{0, 50 * sim.Millisecond} {
			k, j := newJob(t, n)
			m := testMine()
			m.LevelCompute = lc
			inst := launch(t, m, j).(*MineInstance)
			if err := k.Run(); err != nil {
				t.Fatalf("n=%d level compute %v: %v", n, lc, err)
			}
			if len(inst.Frequent) != len(want) {
				t.Fatalf("n=%d level compute %v: %d patterns, serial found %d", n, lc, len(inst.Frequent), len(want))
			}
			//lint:allow-simdeterminism order-independent verification; every entry is checked
			for pat, sup := range want {
				if inst.Frequent[pat] != sup {
					t.Fatalf("n=%d level compute %v: pattern %q support %d, serial %d", n, lc, pat, inst.Frequent[pat], sup)
				}
			}
		}
	}
}

func TestMineDeterministicAcrossSeeds(t *testing.T) {
	a := testMine().MineSerial()
	b := testMine().MineSerial()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different pattern sets")
	}
	diff := testMine()
	diff.Seed = 99
	c := diff.MineSerial()
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical pattern sets (suspicious)")
	}
}

func TestContains(t *testing.T) {
	// Path graph 0-1-2 with labels a,b,c.
	g := graph{
		labels: []int{0, 1, 2},
		adj:    [][]int{{1}, {0, 2}, {1}},
	}
	cases := []struct {
		pat  []int
		want bool
	}{
		{[]int{0}, true},
		{[]int{3}, false},
		{[]int{0, 1, 2}, true},
		{[]int{2, 1, 0}, true},
		{[]int{0, 2}, false},    // not adjacent
		{[]int{1, 0, 1}, false}, // would revisit vertex 1
		{[]int{1, 2}, true},
	}
	for _, c := range cases {
		if got := g.contains(c.pat); got != c.want {
			t.Errorf("contains(%v) = %v, want %v", c.pat, got, c.want)
		}
	}
}

func TestSortedPatterns(t *testing.T) {
	inst := &MineInstance{Frequent: map[string]int{"b0.": 1, "a0.": 2, "c0.": 3}}
	got := fmt.Sprint(inst.SortedPatterns())
	if got != "[a0. b0. c0.]" {
		t.Fatalf("SortedPatterns = %v", got)
	}
}

func TestTimedModelRuntime(t *testing.T) {
	w := Timed{N: 4, Chunks: []sim.Time{sim.Second, sim.Second, 2 * sim.Second, sim.Second}, ExchangeKB: 16, FootprintMB: 50}
	k, j := newJob(t, 4)
	inst := launch(t, w, j)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := j.FinishTime().Seconds()
	if got < 5 || got > 5.5 {
		t.Fatalf("runtime %.2fs, want ~5s", got)
	}
	if inst.Footprint(2) != 50<<20 {
		t.Fatal("footprint")
	}
}

func TestTimedLaunchRejectsBadConfig(t *testing.T) {
	ok := Timed{N: 4, Chunks: []sim.Time{sim.Second}, ExchangeKB: 16, FootprintMB: 50}
	cases := []struct {
		name string
		edit func(w *Timed)
		want string
	}{
		{"N does not match job", func(w *Timed) { w.N = 5 }, "does not match"},
		{"negative ExchangeKB", func(w *Timed) { w.ExchangeKB = -1 }, "negative payload size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := ok
			tc.edit(&w)
			_, j := newJob(t, 4)
			if _, err := w.Launch(j); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Launch() error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestPaperTimedShape(t *testing.T) {
	w := PaperTimed()
	if w.N != 32 {
		t.Fatal("paper runs 32 processes")
	}
	var total float64
	for _, c := range w.Chunks {
		total += c.Seconds()
	}
	if total < 120 || total > 200 {
		t.Fatalf("paper MotifMiner runtime ~%.0fs, want ~160s (points at 30-120s)", total)
	}
}
