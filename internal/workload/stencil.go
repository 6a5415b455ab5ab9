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
	w      Stencil
	states []*stencilState
	// Checksums holds each rank's final field checksum (valid after the
	// run).
	Checksums []float64
}

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
func (w Stencil) LaunchFrom(j *mpi.Job, appStates [][]byte) (Instance, error) {
	inst := &StencilInstance{
		w:         w,
		states:    make([]*stencilState, w.N),
		Checksums: make([]float64, w.N),
	}
	for i := 0; i < w.N; i++ {
		st := &stencilState{}
		if appStates != nil && appStates[i] != nil {
			if err := stencilCodec.Decode(appStates[i], st); err != nil {
				return nil, fmt.Errorf("workload: stencil state for rank %d: %w", i, err)
			}
		} else {
			st.Field = w.initField(i)
		}
		inst.states[i] = st
		// See Ring.LaunchFrom: a restored rank resumes after the capture poll.
		restored := appStates != nil && appStates[i] != nil
		i := i
		j.Launch(i, func(e *mpi.Env) {
			world := e.World()
			// One CollectiveCheckpoint allreduce (two tags) per iteration,
			// plus the capture poll on a restored rank.
			adv := 2 * st.Iter
			if restored {
				adv += 2
			}
			world.AdvanceCollSeq(adv)
			skipPoll := restored
			me := e.Rank()
			left, right := me-1, me+1
			var next []float64
			for ; st.Iter < w.Iters; st.Iter++ {
				if skipPoll {
					skipPoll = false
				} else {
					e.CollectiveCheckpoint(world)
				}
				e.Compute(w.Chunk)
				// Halo exchange with physical boundaries at the ends; a halo
				// cell is one float64, so it rides the payload word.
				if left >= 0 {
					got, _ := e.SendrecvWord(world, left, 1, math.Float64bits(st.Field[1]), left, 1)
					st.Field[0] = math.Float64frombits(got)
				}
				if right < w.N {
					got, _ := e.SendrecvWord(world, right, 1, math.Float64bits(st.Field[w.Cells]), right, 1)
					st.Field[w.Cells+1] = math.Float64frombits(got)
				}
				// Jacobi sweep over the interior into the other strip, which
				// is made on the first sweep (a restored strip comes alone).
				if len(next) != len(st.Field) {
					next = make([]float64, len(st.Field))
				}
				copy(next, st.Field)
				for c := 1; c <= w.Cells; c++ {
					if (me == 0 && c == 1) || (me == w.N-1 && c == w.Cells) {
						continue // fixed boundary cells
					}
					next[c] = 0.5*st.Field[c] + 0.25*(st.Field[c-1]+st.Field[c+1])
				}
				st.Field, next = next, st.Field
			}
			var sum float64
			for _, v := range st.Field[1 : w.Cells+1] {
				sum += v
			}
			inst.Checksums[me] = sum
		})
	}
	return inst, nil
}

// Footprint implements Instance.
func (inst *StencilInstance) Footprint(rank int) int64 { return inst.w.FootprintMB << 20 }

// Capture implements RestartableInstance.
func (inst *StencilInstance) Capture(rank int) ([]byte, error) {
	return stencilCodec.Append(nil, inst.states[rank])
}
