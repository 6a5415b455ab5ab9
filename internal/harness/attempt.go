package harness

import (
	"errors"
	"fmt"
	"slices"

	"gbcr/internal/cr"
	"gbcr/internal/fault"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// scenario is what RunScenario's attempts share: the workload, the last
// restart line's per-rank application and library states (nil before the
// first loss; a nil entry restarts that rank from scratch), the logged
// messages replayed so far, the checkpoint interval and the injector, and
// the next attempt's start on the scenario's clock and its loss horizon.
type scenario struct {
	w             workload.Restartable
	app, lib      [][]byte
	replayed      int
	interval      sim.Time
	inj           *fault.Injector
	offset, limit sim.Time
}

// attempt is one simulation, and the only place the harness drives a
// kernel: cfg's cluster with bus attached (nil: none), w started, a one-shot
// checkpoint request at each at or, with sc set, sc's periodic requests and
// injector, run to sc's horizon or else until the queue drains. The bool
// reports a job lost: an injected crash or the horizon ended it unfinished,
// and its kernel stays live for the caller to read and shut down. Any other
// error shuts the kernel down.
func attempt(cfg ClusterConfig, bus *obs.Bus, w workload.Workload, sc *scenario, at ...sim.Time) (*Cluster, workload.Instance, bool, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return nil, nil, false, err
	}
	if bus != nil {
		c.AttachObs(bus)
	}
	inst, err := c.start(w, sc)
	if err != nil {
		c.K.Shutdown()
		return nil, nil, false, err
	}
	for i := 0; i < c.Job.Size(); i++ {
		c.Coord.Controller(i).FootprintFn = func() int64 { return inst.Footprint(i) }
	}
	for _, t := range at {
		c.Coord.ScheduleCheckpoint(t)
	}
	limit := sim.Time(-1)
	if sc != nil {
		limit = sc.limit
		inj, interval, offset := sc.inj, sc.interval, sc.offset
		inj.Arm(fault.Target{K: c.K, Job: c.Job, Storage: c.Storage, Fabric: c.Fabric, Coord: c.Coord, Tiers: c.Tiers}, offset)
		// Each next request goes out interval after the previous cycle
		// completes, so cycles never overlap; the coordinator retries aborts.
		c.Coord.ScheduleCheckpoint(interval)
		c.Coord.OnCycleDone = func(*cr.CycleReport) {
			inj.OnEpochCommitted(c.Coord.Snapshots(), c.Coord.Epoch(), offset+c.K.Now())
			if !c.Job.Finished() {
				c.Coord.ScheduleCheckpoint(c.K.Now() + interval)
			}
		}
	}
	err = c.K.RunUntil(limit)
	if err != nil && !errors.Is(err, fault.ErrRankCrash) {
		c.K.Shutdown() // the abandoned attempt's ranks are parked; release their goroutines
		return nil, nil, false, err
	}
	return c, inst, err != nil || !c.Job.Finished(), nil
}

// start launches w, or with sc set relaunches sc.w from its states with
// snapshot capture installed (the polled discipline), restores library
// state, and replays logged messages the restored receivers had not yet
// incorporated: that replay reconciles a recovery line whose ranks resumed
// from different epochs.
func (c *Cluster) start(w workload.Workload, sc *scenario) (workload.Instance, error) {
	if sc == nil {
		return w.Launch(c.Job)
	}
	inst, err := sc.w.LaunchFrom(c.Job, sc.app)
	if err != nil {
		return nil, err
	}
	c.Coord.SetCapture(inst.Capture)
	for i, lib := range sc.lib {
		if err := c.Job.Rank(i).RestoreLibState(lib); err != nil {
			return nil, err
		}
	}
	sc.replayed += c.Job.ReplayLogs() // nothing is logged before the first restore
	return inst, nil
}

// Run is one attempt: w launched fresh, with bus attached (nil: none) and a
// one-shot checkpoint request at each time in at, run until the queue
// drains. It fails unless the job finishes, and returns the finished cluster
// for its reports and counters.
func Run(cfg ClusterConfig, w workload.Workload, bus *obs.Bus, at ...sim.Time) (*Cluster, workload.Instance, error) {
	if i := slices.IndexFunc(at, func(t sim.Time) bool { return t < 0 }); i >= 0 {
		return nil, nil, fmt.Errorf("harness: checkpoint issuance time %v is negative", at[i])
	}
	c, inst, lost, err := attempt(cfg, bus, w, nil, at...)
	if err == nil && lost {
		c.K.Shutdown()
		return nil, nil, fmt.Errorf("harness: %s run ended with unfinished ranks", w.Name())
	}
	return c, inst, err
}
