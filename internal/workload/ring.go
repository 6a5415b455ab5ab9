package workload

import (
	"fmt"

	"gbcr/internal/blcr"
	"gbcr/internal/mpi"
	"gbcr/internal/sim"
)

// Ring is a restart-capable iterative kernel: each iteration computes, then
// exchanges an eager 8-byte word around a ring (SendrecvWord), accumulating a
// checksum of received values. Snapshots are taken in the poll at the top of
// an iteration, so the captured state is exactly {iteration, sum}.
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
	Resumable[ringState]
	w    Ring
	Sums []int64 // per-rank final checksums (valid after the run)
}

// ringLoop: an iteration takes the poll's two collective tags.
var ringLoop = Loop[ringState, *RingInstance]{Name: "ring", Codec: &ringCodec, Tags: 2,
	Done: func(st *ringState) int { return st.Iter }, Run: (*RingInstance).run}

// Name implements Workload.
func (w Ring) Name() string { return fmt.Sprintf("ring(n=%d)", w.N) }

// Launch implements Workload.
func (w Ring) Launch(j *mpi.Job) (Instance, error) { return w.LaunchFrom(j, nil) }

// LaunchFrom implements Restartable.
func (w Ring) LaunchFrom(j *mpi.Job, appStates [][]byte) (RestartableInstance, error) {
	return ringLoop.Launch(j, appStates, w.N, w.FootprintMB<<20, &RingInstance{w: w, Sums: make([]int64, w.N)})
}

func (inst *RingInstance) run(e *mpi.Env, st *ringState, p SafePoint) {
	w, me := inst.w, e.Rank()
	right, left := (me+1)%w.N, (me-1+w.N)%w.N
	for ; st.Iter < w.Iters; st.Iter++ {
		p.Poll(e)
		e.Compute(w.Chunk)
		got, _ := e.SendrecvWord(p.World, right, 1, uint64(int64(me)*1_000_000+int64(st.Iter)), left, 1)
		st.Sum += int64(got)
	}
	inst.Sums[me] = st.Sum
}

// ExpectedRingSum returns the failure-free checksum for a rank.
func ExpectedRingSum(n, iters, me int) int64 {
	left, it := int64((me-1+n)%n), int64(iters)
	return it*left*1_000_000 + it*(it-1)/2
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
	Resumable[agState]
	w      AllgatherLoop
	Hashes []uint64
}

// agLoop: an iteration takes the poll's two collective tags and the Allgather's one.
var agLoop = Loop[agState, *AllgatherInstance]{Name: "allgather", Codec: &agCodec, Tags: 3,
	Done: func(st *agState) int { return st.Iter }, Run: (*AllgatherInstance).run}

// Name implements Workload.
func (w AllgatherLoop) Name() string { return fmt.Sprintf("allgatherloop(n=%d)", w.N) }

// Launch implements Workload.
func (w AllgatherLoop) Launch(j *mpi.Job) (Instance, error) { return w.LaunchFrom(j, nil) }

// LaunchFrom implements Restartable.
func (w AllgatherLoop) LaunchFrom(j *mpi.Job, appStates [][]byte) (RestartableInstance, error) {
	return agLoop.Launch(j, appStates, w.N, w.FootprintMB<<20, &AllgatherInstance{w: w, Hashes: make([]uint64, w.N)})
}

func (inst *AllgatherInstance) run(e *mpi.Env, st *agState, p SafePoint) {
	w, me := inst.w, e.Rank()
	for ; st.Iter < w.Iters; st.Iter++ {
		p.Poll(e)
		e.Compute(w.Chunk)
		blocks := e.Allgather(p.World, mpi.I64ToBytes([]int64{int64(me)*1_000_000 + int64(st.Iter)}))
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
}
