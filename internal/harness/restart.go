package harness

import (
	"fmt"

	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// FailureResult describes a run that was killed and restarted from its last
// complete global checkpoint.
type FailureResult struct {
	Epoch        int               // the checkpoint epoch restarted from
	FailedAt     sim.Time          // when the whole job was lost
	RestartInst  workload.Instance // the restarted run's instance (results)
	RestartTime  sim.Time          // completion time of the restarted run
	ReadbackTime sim.Time          // time spent reading images from storage
}

// RunWithFailure runs a restartable workload with checkpoints scheduled at
// ckptAt, kills the whole job at failAt (after at least one global
// checkpoint completed), restarts every rank from the latest complete
// checkpoint on a fresh cluster, and runs the restarted job to completion.
//
// The returned instance belongs to the restarted run; comparing its results
// with a failure-free run is the end-to-end consistency check for the
// group-based recovery line.
func RunWithFailure(cfg ClusterConfig, w workload.Restartable, ckptAt []sim.Time, failAt sim.Time) (FailureResult, error) {
	// Functional restart requires polled safe points and state capture.
	cfg.CR.Polled = true
	cfg.CR.CaptureState = true

	c, err := NewCluster(cfg)
	if err != nil {
		return FailureResult{}, err
	}
	inst, err := c.launch(w)
	if err != nil {
		return FailureResult{}, err
	}
	ri, ok := inst.(workload.RestartableInstance)
	if !ok {
		return FailureResult{}, fmt.Errorf("harness: %s's instance is not restartable", w.Name())
	}
	for i := 0; i < c.Job.Size(); i++ {
		i := i
		c.Coord.Controller(i).CaptureFn = func() ([]byte, error) { return ri.Capture(i) }
	}
	for _, at := range ckptAt {
		c.Coord.ScheduleCheckpoint(at)
	}
	// The failure: the simulation is abandoned at failAt — every process,
	// its memory, and the network are lost. Only storage survives.
	if err := c.K.RunUntil(failAt); err != nil {
		c.K.Shutdown()
		return FailureResult{}, fmt.Errorf("harness: run until failure: %w", err)
	}
	epoch, snaps := c.Coord.Snapshots().Latest()
	c.K.Shutdown() // release the dead job's process goroutines
	if snaps == nil {
		return FailureResult{}, fmt.Errorf("harness: no complete checkpoint before the failure at %v", failAt)
	}

	// Restart: a fresh cluster restores every rank from its snapshot.
	c2, err := NewCluster(cfg)
	if err != nil {
		return FailureResult{}, err
	}
	appStates := make([][]byte, cfg.N)
	for i := 0; i < cfg.N; i++ {
		s := snaps[i]
		if s == nil {
			return FailureResult{}, fmt.Errorf("harness: epoch %d missing rank %d", epoch, i)
		}
		if err := s.Verify(); err != nil {
			return FailureResult{}, err
		}
		appStates[i] = s.AppState
	}
	inst2, err := w.LaunchFrom(c2.Job, appStates)
	if err != nil {
		return FailureResult{}, fmt.Errorf("harness: relaunch: %w", err)
	}
	for i := 0; i < cfg.N; i++ {
		if err := c2.Job.Rank(i).RestoreLibState(snaps[i].LibState); err != nil {
			return FailureResult{}, fmt.Errorf("harness: restore rank %d: %w", i, err)
		}
		i := i
		c2.Coord.Controller(i).FootprintFn = func() int64 { return inst2.Footprint(i) }
	}
	// Account for reading the images back from shared storage before the
	// processes resume (all ranks read concurrently). The transfers are
	// direction-tagged reads, so restart traffic is distinguishable from
	// checkpoint writes in traces.
	var readback sim.Time
	for i := 0; i < cfg.N; i++ {
		tr, err := c2.Storage.StartRead(snaps[i].Size())
		if err != nil {
			return FailureResult{}, fmt.Errorf("harness: readback rank %d: %w", i, err)
		}
		tr.OnDone(func() {
			if t := tr.Elapsed(); t > readback {
				readback = t
			}
		})
	}
	if err := c2.K.Run(); err != nil {
		c2.K.Shutdown() // a failed restart leaves its ranks parked
		return FailureResult{}, fmt.Errorf("harness: restarted run: %w", err)
	}
	return FailureResult{
		Epoch:        epoch,
		FailedAt:     failAt,
		RestartInst:  inst2,
		RestartTime:  c2.Job.FinishTime(),
		ReadbackTime: readback,
	}, nil
}
