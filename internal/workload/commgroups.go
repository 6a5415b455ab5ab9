package workload

import (
	"fmt"

	"gbcr/internal/mpi"
	"gbcr/internal/sim"
)

// CommGroups is the Figure 3 micro-benchmark: "MPI processes communicate
// only within a communication group using blocking MPI calls continuously,
// effectively synchronizing themselves in groups." Each iteration computes
// for Chunk, then runs a blocking neighbour exchange inside the
// communication group. Group size 1 is the embarrassingly parallel case.
//
// With BarrierEvery set it is the Figure 4 placement benchmark: a global
// MPI_Barrier follows every BarrierEvery of computation ("every minute" in
// the paper). The effective checkpoint delay then depends on where the
// checkpoint lands relative to the barrier: close to the synchronization
// line, groups that finish early cannot run ahead and the delay approaches
// the Total Checkpoint Time.
type CommGroups struct {
	N             int      // total ranks
	CommGroupSize int      // communication group size, 1..N (16/8/4/2/1 in Fig. 3)
	Iters         int      // iterations to run, barrier phases included
	Chunk         sim.Time // computation per iteration
	MsgBytes      int      // exchange payload (eager-sized by default)
	FootprintMB   int64    // per-process memory footprint (paper: 180 MB)
	// BarrierEvery is the compute between world barriers: one follows every
	// max(BarrierEvery/Chunk, 1) iterations. Zero is no barrier.
	BarrierEvery sim.Time
}

// Name implements Workload.
func (w CommGroups) Name() string {
	if w.BarrierEvery > 0 {
		return fmt.Sprintf("barrier(n=%d,comm=%d,every=%v)", w.N, w.CommGroupSize, w.BarrierEvery)
	}
	return fmt.Sprintf("commgroups(n=%d,comm=%d)", w.N, w.CommGroupSize)
}

// Launch implements Workload.
func (w CommGroups) Launch(j *mpi.Job) (Instance, error) {
	name := "commgroups"
	if w.BarrierEvery > 0 {
		name = "barrier"
	}
	if err := checkSize(name, w.N, j); err != nil {
		return nil, err
	}
	if w.CommGroupSize < 1 || w.CommGroupSize > w.N {
		return nil, fmt.Errorf("workload: %s: communication group size %d is outside 1..N=%d", name, w.CommGroupSize, w.N)
	}
	msg := int64(w.MsgBytes)
	if msg <= 0 {
		msg = 1024
	}
	per := max(int(w.BarrierEvery/max(w.Chunk, 1)), 1)
	j.LaunchAll(func(e *mpi.Env) {
		var world, c *mpi.Comm
		if w.BarrierEvery > 0 {
			world = e.World()
		}
		gr := GroupRanks(w.N, w.CommGroupSize, e.Rank())
		if len(gr) > 1 {
			c = e.NewComm(gr)
		}
		for it := 1; it <= w.Iters; it++ {
			e.Compute(w.Chunk)
			if c != nil {
				// Ring exchange inside the communication group: a
				// blocking synchronization among its members.
				n := c.Size()
				me := c.Rank()
				e.SendrecvSize(c, (me+1)%n, 1, msg, (me-1+n)%n, 1)
			}
			if world != nil && it%per == 0 {
				e.Barrier(world)
			}
		}
	})
	return ConstFootprint(w.FootprintMB << 20), nil
}
