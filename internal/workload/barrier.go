package workload

import (
	"fmt"

	"gbcr/internal/mpi"
	"gbcr/internal/sim"
)

// BarrierPhases is the Figure 4 placement benchmark: communication groups of
// size CommGroupSize exchange continuously, and a global MPI_Barrier is
// enforced after every BarrierEvery of computation ("every minute" in the
// paper). The effective checkpoint delay depends on where the checkpoint
// lands relative to the barrier: close to the synchronization line, groups
// that finish early cannot run ahead and the delay approaches the Total
// Checkpoint Time.
type BarrierPhases struct {
	N             int
	CommGroupSize int      // communication group size, 1..N
	Chunk         sim.Time // computation per iteration
	BarrierEvery  sim.Time // accumulated compute between global barriers
	Phases        int      // number of barrier-terminated phases
	MsgBytes      int
	FootprintMB   int64
}

// Name implements Workload.
func (w BarrierPhases) Name() string {
	return fmt.Sprintf("barrier(n=%d,comm=%d,every=%v)", w.N, w.CommGroupSize, w.BarrierEvery)
}

// Launch implements Workload.
func (w BarrierPhases) Launch(j *mpi.Job) (Instance, error) {
	if err := checkSize("barrier", w.N, j); err != nil {
		return nil, err
	}
	if w.CommGroupSize < 1 || w.CommGroupSize > w.N {
		return nil, fmt.Errorf("workload: barrier: communication group size %d is outside 1..N=%d", w.CommGroupSize, w.N)
	}
	msg := int64(w.MsgBytes)
	if msg <= 0 {
		msg = 1024
	}
	itersPerPhase := int(w.BarrierEvery / w.Chunk)
	if itersPerPhase < 1 {
		itersPerPhase = 1
	}
	for i := 0; i < w.N; i++ {
		j.Launch(i, func(e *mpi.Env) {
			world := e.World()
			var c *mpi.Comm
			gr := GroupRanks(w.N, w.CommGroupSize, e.Rank())
			if len(gr) > 1 {
				c = e.NewComm(gr)
			}
			for ph := 0; ph < w.Phases; ph++ {
				for it := 0; it < itersPerPhase; it++ {
					e.Compute(w.Chunk)
					if c != nil {
						n := c.Size()
						me := c.Rank()
						e.SendrecvSize(c, (me+1)%n, 1, msg, (me-1+n)%n, 1)
					}
				}
				e.Barrier(world)
			}
		})
	}
	return ConstFootprint(w.FootprintMB << 20), nil
}
