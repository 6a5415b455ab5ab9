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
type CommGroups struct {
	N             int      // total ranks
	CommGroupSize int      // communication group size, 1..N (16/8/4/2/1 in Fig. 3)
	Iters         int      // iterations to run
	Chunk         sim.Time // computation per iteration
	MsgBytes      int      // exchange payload (eager-sized by default)
	FootprintMB   int64    // per-process memory footprint (paper: 180 MB)
}

// Name implements Workload.
func (w CommGroups) Name() string {
	return fmt.Sprintf("commgroups(n=%d,comm=%d)", w.N, w.CommGroupSize)
}

// Launch implements Workload.
func (w CommGroups) Launch(j *mpi.Job) (Instance, error) {
	if err := checkSize("commgroups", w.N, j); err != nil {
		return nil, err
	}
	if w.CommGroupSize < 1 || w.CommGroupSize > w.N {
		return nil, fmt.Errorf("workload: commgroups: communication group size %d is outside 1..N=%d", w.CommGroupSize, w.N)
	}
	msg := int64(w.MsgBytes)
	if msg <= 0 {
		msg = 1024
	}
	for i := 0; i < w.N; i++ {
		j.Launch(i, func(e *mpi.Env) {
			var c *mpi.Comm
			gr := GroupRanks(w.N, w.CommGroupSize, e.Rank())
			if len(gr) > 1 {
				c = e.NewComm(gr)
			}
			for it := 0; it < w.Iters; it++ {
				e.Compute(w.Chunk)
				if c != nil {
					// Ring exchange inside the communication group: a
					// blocking synchronization among its members.
					n := c.Size()
					me := c.Rank()
					e.SendrecvSize(c, (me+1)%n, 1, msg, (me-1+n)%n, 1)
				}
			}
		})
	}
	return ConstFootprint(w.FootprintMB << 20), nil
}
