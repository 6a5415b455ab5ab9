package workload

import (
	"fmt"

	"gbcr/internal/blcr"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
)

// RestartableInstance extends Instance with application-state capture for
// functional restart.
type RestartableInstance interface {
	Instance
	// Capture serializes the rank's application state; the checkpoint layer
	// calls it at snapshot time (always at an iteration boundary in polled
	// mode).
	Capture(rank int) ([]byte, error)
}

// Restartable extends Workload with relaunch-from-snapshot.
type Restartable interface {
	Workload
	// LaunchFrom launches the workload resuming from per-rank application
	// states (entries may be nil for ranks that start fresh). It errors on
	// states that cannot be decoded.
	LaunchFrom(j *mpi.Job, appStates [][]byte) (Instance, error)
}

// Ring is a restart-capable iterative kernel: each iteration computes, then
// exchanges an eager 8-byte word around a ring (SendrecvWord), accumulating a
// checksum of received values. Snapshots are taken at iteration boundaries
// (MaybeCheckpoint), so the captured state is exactly {iteration, sum}.
type Ring struct {
	N           int
	Iters       int
	Chunk       sim.Time
	FootprintMB int64
}

type ringState struct {
	Iter int
	Sum  int64
}

var ringCodec blcr.Codec[ringState]

// RingInstance is one run of Ring.
type RingInstance struct {
	w      Ring
	states []*ringState
	Sums   []int64 // per-rank final checksums (valid after the run)
}

// Name implements Workload.
func (w Ring) Name() string { return fmt.Sprintf("ring(n=%d)", w.N) }

// Launch implements Workload.
func (w Ring) Launch(j *mpi.Job) (Instance, error) { return w.LaunchFrom(j, nil) }

// LaunchFrom implements Restartable.
func (w Ring) LaunchFrom(j *mpi.Job, appStates [][]byte) (Instance, error) {
	inst := &RingInstance{w: w, states: make([]*ringState, w.N), Sums: make([]int64, w.N)}
	for i := 0; i < w.N; i++ {
		st := &ringState{}
		if appStates != nil && appStates[i] != nil {
			if err := ringCodec.Decode(appStates[i], st); err != nil {
				return nil, fmt.Errorf("workload: ring state for rank %d: %w", i, err)
			}
		}
		inst.states[i] = st
		// The snapshot is captured inside iteration Iter's CollectiveCheckpoint
		// poll, so a restored rank resumes just after it: re-running the poll
		// is consistent when every rank restarts from the same epoch, but a
		// mixed-epoch recovery line (message logging) would re-request
		// contributions its receive state already counts as incorporated.
		restored := appStates != nil && appStates[i] != nil
		i := i
		j.Launch(i, func(e *mpi.Env) {
			world := e.World()
			// Each completed iteration consumed one CollectiveCheckpoint
			// allreduce (two collective tags), plus the capture poll itself
			// on a restored rank.
			adv := 2 * st.Iter
			if restored {
				adv += 2
			}
			world.AdvanceCollSeq(adv)
			skipPoll := restored
			me := e.Rank()
			right, left := (me+1)%w.N, (me-1+w.N)%w.N
			for ; st.Iter < w.Iters; st.Iter++ {
				if skipPoll {
					skipPoll = false
				} else {
					e.CollectiveCheckpoint(world)
				}
				e.Compute(w.Chunk)
				got, _ := e.SendrecvWord(world, right, 1, uint64(int64(me)*1_000_000+int64(st.Iter)), left, 1)
				st.Sum += int64(got)
			}
			inst.Sums[me] = st.Sum
		})
	}
	return inst, nil
}

// Footprint implements Instance.
func (inst *RingInstance) Footprint(rank int) int64 { return inst.w.FootprintMB << 20 }

// Capture implements RestartableInstance.
func (inst *RingInstance) Capture(rank int) ([]byte, error) {
	return ringCodec.Append(nil, inst.states[rank])
}

// ExpectedRingSum returns the failure-free checksum for a rank.
func ExpectedRingSum(n, iters, me int) int64 {
	left := (me - 1 + n) % n
	var sum int64
	for i := 0; i < iters; i++ {
		sum += int64(left)*1_000_000 + int64(i)
	}
	return sum
}

// AllgatherLoop is a restart-capable collective kernel modeled on the
// MotifMiner pattern: compute, then MPI_Allgather each iteration. It
// additionally exercises collective-sequence restoration across restart.
type AllgatherLoop struct {
	N           int
	Iters       int
	Chunk       sim.Time
	FootprintMB int64
}

type agState struct {
	Iter int
	Hash uint64
}

var agCodec blcr.Codec[agState]

// AllgatherInstance is one run of AllgatherLoop.
type AllgatherInstance struct {
	w      AllgatherLoop
	states []*agState
	Hashes []uint64
}

// Name implements Workload.
func (w AllgatherLoop) Name() string { return fmt.Sprintf("allgatherloop(n=%d)", w.N) }

// Launch implements Workload.
func (w AllgatherLoop) Launch(j *mpi.Job) (Instance, error) { return w.LaunchFrom(j, nil) }

// LaunchFrom implements Restartable.
func (w AllgatherLoop) LaunchFrom(j *mpi.Job, appStates [][]byte) (Instance, error) {
	inst := &AllgatherInstance{w: w, states: make([]*agState, w.N), Hashes: make([]uint64, w.N)}
	for i := 0; i < w.N; i++ {
		st := &agState{}
		if appStates != nil && appStates[i] != nil {
			if err := agCodec.Decode(appStates[i], st); err != nil {
				return nil, fmt.Errorf("workload: allgather state for rank %d: %w", i, err)
			}
		}
		inst.states[i] = st
		// See Ring.LaunchFrom: a restored rank resumes after the capture poll.
		restored := appStates != nil && appStates[i] != nil
		i := i
		j.Launch(i, func(e *mpi.Env) {
			world := e.World()
			// Each completed iteration consumed one CollectiveCheckpoint
			// allreduce (two tags) plus one Allgather (one tag); a restored
			// rank also consumed the capture poll's two.
			adv := 3 * st.Iter
			if restored {
				adv += 2
			}
			world.AdvanceCollSeq(adv)
			skipPoll := restored
			me := e.Rank()
			for ; st.Iter < w.Iters; st.Iter++ {
				if skipPoll {
					skipPoll = false
				} else {
					e.CollectiveCheckpoint(world)
				}
				e.Compute(w.Chunk)
				blocks := e.Allgather(world, mpi.I64ToBytes([]int64{int64(me)*1_000_000 + int64(st.Iter)}))
				for _, b := range blocks {
					v, err := mpi.BytesToI64(b)
					if err != nil {
						e.Proc().K().Fail(err)
						return
					}
					st.Hash = st.Hash*1099511628211 + uint64(v[0])
				}
			}
			inst.Hashes[me] = st.Hash
		})
	}
	return inst, nil
}

// Footprint implements Instance.
func (inst *AllgatherInstance) Footprint(rank int) int64 { return inst.w.FootprintMB << 20 }

// Capture implements RestartableInstance.
func (inst *AllgatherInstance) Capture(rank int) ([]byte, error) {
	return agCodec.Append(nil, inst.states[rank])
}
