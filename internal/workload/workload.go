// Package workload provides the applications used in the paper's
// evaluation: the communication-group micro-benchmark (Figure 3, and with a
// periodic global barrier the Figure 4 placement benchmark), and the
// restart-capable kernels used by the functional-recovery tests. The
// HPL and MotifMiner applications live in subpackages.
package workload

import "gbcr/internal/mpi"

// Workload is a launchable application. Launch installs every rank's body
// on the job and returns the per-run instance; it must be callable on
// multiple clusters (fresh state per call). Launch errors on a
// configuration that cannot run on the job (size mismatch, malformed
// parameters, corrupt restart state).
type Workload interface {
	Name() string
	Launch(j *mpi.Job) (Instance, error)
}

// Instance is one run of a workload.
type Instance interface {
	// Footprint reports the rank's current memory footprint in bytes; the
	// checkpoint layer calls it at snapshot time.
	Footprint(rank int) int64
}

// RestartableInstance extends Instance with application-state capture for
// functional restart.
type RestartableInstance interface {
	Instance
	// Capture serializes the rank's application state; the checkpoint layer
	// calls it at snapshot time.
	Capture(rank int) ([]byte, error)
}

// Restartable extends Workload with relaunch-from-snapshot.
type Restartable interface {
	Workload
	// LaunchFrom launches the workload resuming from per-rank application
	// states (nil entries start fresh). It errors on undecodable states.
	LaunchFrom(j *mpi.Job, appStates [][]byte) (RestartableInstance, error)
}

// ConstFootprint is a fixed-footprint Instance for workloads whose image
// size does not vary over the run.
type ConstFootprint int64

// Footprint implements Instance.
func (f ConstFootprint) Footprint(rank int) int64 { return int64(f) }

// GroupRanks returns the consecutive-rank communication group containing
// rank me when n ranks are partitioned into groups of the given size.
func GroupRanks(n, size, me int) []int {
	if size <= 0 || size > n {
		size = n
	}
	lo := (me / size) * size
	hi := min(lo+size, n)
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}
