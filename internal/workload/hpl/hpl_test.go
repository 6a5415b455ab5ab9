package hpl

import (
	"math"
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

func runSolve(t *testing.T, cfg Solve) *SolveInstance {
	t.Helper()
	k, j := newJob(t, cfg.P*cfg.Q)
	inst := launch(t, cfg, j).(*SolveInstance)
	if err := k.Run(); err != nil {
		t.Fatalf("%s: %v", cfg.Name(), err)
	}
	return inst
}

func TestSolveGrids(t *testing.T) {
	grids := []struct{ p, q int }{{1, 1}, {2, 2}, {2, 3}, {4, 1}, {1, 4}, {3, 2}}
	for _, g := range grids {
		inst := runSolve(t, Solve{N: 48, NB: 8, P: g.p, Q: g.q, Seed: 7})
		if inst.MaxResidual > 1e-9 {
			t.Fatalf("%dx%d grid: residual %g", g.p, g.q, inst.MaxResidual)
		}
	}
}

func TestSolveLargerMatrix(t *testing.T) {
	inst := runSolve(t, Solve{N: 96, NB: 8, P: 2, Q: 2, Seed: 3})
	if inst.MaxResidual > 1e-9 {
		t.Fatalf("residual %g", inst.MaxResidual)
	}
}

func TestSolveSeedChangesMatrix(t *testing.T) {
	a := Solve{N: 16, NB: 8, P: 1, Q: 1, Seed: 1}
	b := Solve{N: 16, NB: 8, P: 1, Q: 1, Seed: 2}
	if a.elem(3, 5) == b.elem(3, 5) {
		t.Fatal("different seeds produced the same matrix")
	}
	if a.elem(4, 4) < float64(a.N) {
		t.Fatal("diagonal not dominant")
	}
}

func TestSolveFootprintTracksLocalBlocks(t *testing.T) {
	inst := runSolve(t, Solve{N: 32, NB: 8, P: 2, Q: 2, Seed: 1})
	// 4x4 blocks over a 2x2 grid: each rank owns 4 blocks of 8x8 doubles.
	want := int64(4 * 8 * 8 * 8)
	for r := 0; r < 4; r++ {
		if inst.Footprint(r) != want {
			t.Fatalf("rank %d footprint %d, want %d", r, inst.Footprint(r), want)
		}
	}
}

func TestLuFactorRoundtrip(t *testing.T) {
	const nb = 4
	a := make([]float64, nb*nb)
	orig := make([]float64, nb*nb)
	for i := range a {
		a[i] = float64((i*7)%11) + 1
	}
	for i := 0; i < nb; i++ {
		a[i*nb+i] += 40 // dominance
	}
	copy(orig, a)
	luFactor(a, nb)
	// Rebuild L*U and compare.
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			var sum float64
			for k := 0; k <= min(i, j); k++ {
				l := a[i*nb+k]
				if k == i {
					l = 1
				}
				sum += l * a[k*nb+j]
			}
			if math.Abs(sum-orig[i*nb+j]) > 1e-10 {
				t.Fatalf("LU mismatch at (%d,%d): %g vs %g", i, j, sum, orig[i*nb+j])
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTriangularSolves(t *testing.T) {
	const nb = 3
	lu := []float64{4, 1, 2, 0.5, 5, 1, 0.25, 0.5, 6} // combined L\U
	// solveXU: X*U = A.
	a := []float64{8, 6, 11, 4, 7, 9, 12, 5, 10}
	x := append([]float64{}, a...)
	solveXU(x, lu, nb)
	for r := 0; r < nb; r++ {
		for c := 0; c < nb; c++ {
			var sum float64
			for k := 0; k <= c; k++ {
				sum += x[r*nb+k] * lu[k*nb+c]
			}
			if math.Abs(sum-a[r*nb+c]) > 1e-10 {
				t.Fatalf("solveXU wrong at (%d,%d)", r, c)
			}
		}
	}
	// solveLX: L*X = A with unit-lower L.
	x2 := append([]float64{}, a...)
	solveLX(x2, lu, nb)
	for r := 0; r < nb; r++ {
		for c := 0; c < nb; c++ {
			sum := x2[r*nb+c]
			for k := 0; k < r; k++ {
				sum += lu[r*nb+k] * x2[k*nb+c]
			}
			if math.Abs(sum-a[r*nb+c]) > 1e-10 {
				t.Fatalf("solveLX wrong at (%d,%d)", r, c)
			}
		}
	}
}

func TestGemmSub(t *testing.T) {
	const nb = 2
	a := []float64{10, 10, 10, 10}
	l := []float64{1, 2, 3, 4}
	u := []float64{5, 6, 7, 8}
	gemmSub(a, l, u, nb)
	want := []float64{10 - 19, 10 - 22, 10 - 43, 10 - 50}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("gemmSub = %v, want %v", a, want)
		}
	}
}

func TestTimedModelRuntime(t *testing.T) {
	w := Timed{P: 2, Q: 2, Steps: 10, Step0: sim.Second, PanelKB: 64, UpdateKB: 16, BaseFootprintMB: 100}
	k, j := newJob(t, 4)
	inst := launch(t, w, j).(*TimedInstance)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Sum of Step0 * ((Steps-k)/Steps)^2 for k=0..9 = 1s * 3.85.
	var want float64
	for kk := 0; kk < 10; kk++ {
		rem := float64(10-kk) / 10
		want += rem * rem
	}
	got := j.FinishTime().Seconds()
	if math.Abs(got-want) > 0.2 {
		t.Fatalf("runtime %.2fs, want ~%.2fs", got, want)
	}
	// Footprint grew to the full base after completion.
	if fp := inst.Footprint(0); fp != 100<<20 {
		t.Fatalf("final footprint %d", fp)
	}
}

func TestTimedLaunchRejectsBadConfig(t *testing.T) {
	ok := Timed{P: 2, Q: 2, Steps: 1, Step0: sim.Second, PanelKB: 64, UpdateKB: 16, BaseFootprintMB: 100}
	cases := []struct {
		name string
		edit func(w *Timed)
		want string
	}{
		{"grid does not match job", func(w *Timed) { w.P = 3 }, "does not match"},
		{"negative PanelKB", func(w *Timed) { w.PanelKB = -1 }, "negative payload size"},
		{"negative UpdateKB", func(w *Timed) { w.UpdateKB = -1 }, "negative payload size"},
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
	_, j := newJob(t, 4)
	zero := ok
	zero.PanelKB, zero.UpdateKB = 0, 0
	launch(t, zero, j) // empty broadcasts are legal
}

func TestTimedFootprintGrows(t *testing.T) {
	w := Timed{P: 1, Q: 2, Steps: 10, Step0: sim.Second, PanelKB: 1, UpdateKB: 1, BaseFootprintMB: 100}
	k, j := newJob(t, 2)
	inst := launch(t, w, j).(*TimedInstance)
	var early, late int64
	k.At(500*sim.Millisecond, func() { early = inst.Footprint(0) })
	k.At(3*sim.Second, func() { late = inst.Footprint(0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !(early < late) {
		t.Fatalf("footprint not growing: early=%d late=%d", early, late)
	}
	if early < 45*(100<<20)/100 {
		t.Fatalf("early footprint %d below the 45%% floor", early)
	}
}

func TestPaperTimedShape(t *testing.T) {
	w := PaperTimed()
	if w.P*w.Q != 32 {
		t.Fatal("paper grid is 8x4 = 32 ranks")
	}
	// Total runtime target ~450 s.
	var total float64
	for k := 0; k < w.Steps; k++ {
		rem := float64(w.Steps-k) / float64(w.Steps)
		total += w.Step0.Seconds() * rem * rem
	}
	if total < 400 || total > 520 {
		t.Fatalf("paper HPL runtime ~%.0fs, want ~450s", total)
	}
}
