package workload

import (
	"fmt"
	"math"

	"gbcr/internal/blcr"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
)

// Stencil is a restart-capable 1D-decomposed Jacobi relaxation: each rank
// owns a strip of a 1D field, exchanges halo cells with its neighbours
// every iteration, and relaxes its interior — the classic nearest-neighbour
// pattern of the scientific applications the paper's introduction
// motivates. Nearest-neighbour traffic makes it the best case for
// group-based checkpointing with rank-order groups.
type Stencil struct {
	N           int      // ranks
	Cells       int      // field cells per rank
	Iters       int      // relaxation sweeps
	Chunk       sim.Time // modeled compute per sweep
	FootprintMB int64
}

type stencilState struct {
	Iter  int
	Field []float64 // strip including one halo cell on each side
}

var stencilCodec blcr.Codec[stencilState]

// StencilInstance is one run of Stencil.
type StencilInstance struct {
	Resumable[stencilState]
	w         Stencil
	Checksums []float64 // each rank's final field checksum (valid after the run)
}

// stencilLoop: an iteration takes the poll's two collective tags.
var stencilLoop = Loop[stencilState, *StencilInstance]{Name: "stencil", Codec: &stencilCodec, Tags: 2,
	Fresh: func(inst *StencilInstance, me int) *stencilState { return &stencilState{Field: inst.w.initField(me)} },
	Done:  func(st *stencilState) int { return st.Iter }, Run: (*StencilInstance).run}

// Name implements Workload.
func (w Stencil) Name() string { return fmt.Sprintf("stencil(n=%d,cells=%d)", w.N, w.Cells) }

// Launch implements Workload.
func (w Stencil) Launch(j *mpi.Job) (Instance, error) { return w.LaunchFrom(j, nil) }

// initField gives rank me a deterministic initial strip (with halos).
func (w Stencil) initField(me int) []float64 {
	f := make([]float64, w.Cells+2)
	for i := range f {
		g := me*w.Cells + i // global-ish coordinate
		f[i] = float64((g*2654435761)%1000) / 10
	}
	return f
}

// LaunchFrom implements Restartable.
func (w Stencil) LaunchFrom(j *mpi.Job, appStates [][]byte) (RestartableInstance, error) {
	return stencilLoop.Launch(j, appStates, w.N, w.FootprintMB<<20, &StencilInstance{w: w, Checksums: make([]float64, w.N)})
}

func (inst *StencilInstance) run(e *mpi.Env, st *stencilState, p SafePoint) {
	w, me := inst.w, e.Rank()
	left, right := me-1, me+1
	var next []float64
	for ; st.Iter < w.Iters; st.Iter++ {
		p.Poll(e)
		e.Compute(w.Chunk)
		// Halo exchange with physical boundaries at the ends; a halo cell is
		// one float64, so it rides the payload word.
		if left >= 0 {
			got, _ := e.SendrecvWord(p.World, left, 1, math.Float64bits(st.Field[1]), left, 1)
			st.Field[0] = math.Float64frombits(got)
		}
		if right < w.N {
			got, _ := e.SendrecvWord(p.World, right, 1, math.Float64bits(st.Field[w.Cells]), right, 1)
			st.Field[w.Cells+1] = math.Float64frombits(got)
		}
		// Jacobi sweep over the interior into the other strip, which is made
		// on the first sweep (a restored strip comes alone).
		if len(next) != len(st.Field) {
			next = make([]float64, len(st.Field))
		}
		copy(next, st.Field)
		for c := 1; c <= w.Cells; c++ {
			if (me == 0 && c == 1) || (me == w.N-1 && c == w.Cells) {
				continue // fixed boundary cells
			}
			next[c] = float64(0.5*st.Field[c]) + float64(0.25*(st.Field[c-1]+st.Field[c+1])) // float64() rounds: no fused multiply-add
		}
		st.Field, next = next, st.Field
	}
	var sum float64
	for _, v := range st.Field[1 : w.Cells+1] {
		sum += v
	}
	inst.Checksums[me] = sum
}
