package main

import (
	"fmt"

	"gbcr/internal/cr"
	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// An op is one simulation: a baseline, a checkpointed cell, a scenario run
// to completion, or a directly assembled run. run returns the op's simulated
// result as one line of the repetition's digest input.
type op interface {
	run(x *repState) (string, error)
}

// repState is the state of one repetition (and of the set-up round before it).
// Untraced, tr and bus are nil and every op goes through the harness entry
// point a user would call. Traced, cells are assembled step by step from the
// harness's public parts with a host-time span around each step, the bus
// collects every layer's counters, and the result must digest the same.
type repState struct {
	baselines map[string]sim.Time
	tr        *tracer
	bus       *obs.Bus
	counts    traceCounts
}

func newState() *repState { return &repState{baselines: make(map[string]sim.Time)} }

// forRep returns a fresh repetition state that keeps the set-up's baselines.
func (x *repState) forRep(tr *tracer, bus *obs.Bus) *repState {
	return &repState{baselines: x.baselines, tr: tr, bus: bus}
}

func (x *repState) traced() bool { return x.tr != nil }

// secs formats simulated time for the digest.
func secs(t sim.Time) string { return fmt.Sprintf("%.9g", t.Seconds()) }

// baselineOp runs the workload without a checkpoint and records its
// completion time for the cells that measure against it.
type baselineOp struct {
	cfg harness.ClusterConfig
	w   workload.Workload
}

func (o baselineOp) run(x *repState) (string, error) {
	var t sim.Time
	var err error
	if x.traced() {
		var c *harness.Cluster
		c, _, err = x.runCell(o.cfg, o.w, -1)
		if err == nil {
			t = c.Job.FinishTime()
		}
	} else {
		t, err = harness.Baseline(o.cfg, o.w)
	}
	if err != nil {
		return "", err
	}
	x.baselines[harness.BaselineKey(o.cfg, o.w)] = t
	return fmt.Sprintf("baseline %s %s", o.w.Name(), secs(t)), nil
}

// cellOp measures the Effective Checkpoint Delay of one checkpoint issued at
// at, against the baseline a baselineOp recorded.
type cellOp struct {
	cfg harness.ClusterConfig
	w   workload.Workload
	at  sim.Time
}

func (o cellOp) run(x *repState) (string, error) {
	base, ok := x.baselines[harness.BaselineKey(o.cfg, o.w)]
	if !ok {
		return "", fmt.Errorf("no baseline recorded for %s", o.w.Name())
	}
	var res harness.Result
	if x.traced() {
		c, reps, err := x.runCell(o.cfg, o.w, o.at)
		if err != nil {
			return "", err
		}
		if len(reps) != 1 {
			return "", fmt.Errorf("expected 1 checkpoint cycle, got %d", len(reps))
		}
		res = harness.Result{Baseline: base, WithCkpt: c.Job.FinishTime(), Report: reps[0]}
	} else {
		var err error
		res, err = harness.MeasureWithBaseline(o.cfg, o.w, o.at, base)
		if err != nil {
			return "", err
		}
	}
	if res.EffectiveDelay() < 0 {
		return "", fmt.Errorf("negative effective delay %v", res.EffectiveDelay())
	}
	return fmt.Sprintf("cell %s group=%d at=%s delay=%s total=%s individual=%s",
		o.w.Name(), o.cfg.CR.GroupSize, secs(o.at), secs(res.EffectiveDelay()),
		secs(res.Total()), secs(res.Report.MeanIndividual())), nil
}

// directOp assembles a cluster from harness.NewCluster, launches the
// workload, schedules one checkpoint and runs the kernel, with no baseline:
// the path figures.ExtensionLogging uses to read per-rank library counters.
// It is the same code traced and untraced.
type directOp struct {
	cfg harness.ClusterConfig
	w   workload.Workload
	at  sim.Time
}

func (o directOp) run(x *repState) (string, error) {
	loggedBefore := x.counts.bytesLogged
	c, reps, err := x.runCell(o.cfg, o.w, o.at)
	if err != nil {
		return "", err
	}
	if len(reps) != 1 {
		return "", fmt.Errorf("expected 1 checkpoint cycle, got %d", len(reps))
	}
	return fmt.Sprintf("direct %s finish=%s total=%s logged=%d events=%d",
		o.w.Name(), secs(c.Job.FinishTime()), secs(reps[0].Total()),
		x.counts.bytesLogged-loggedBefore, c.K.EventsProcessed()), nil
}

// scenarioOp runs a restartable Ring to completion under periodic
// checkpoints and a fault scenario, restarting after every loss, and checks
// the finished job's per-rank sums against the failure-free closed form:
// restart from any committed line must be equivalent to never failing.
type scenarioOp struct {
	label    string
	cfg      harness.ClusterConfig
	w        workload.Ring
	scn      fault.Scenario
	interval sim.Time
}

func (o scenarioOp) run(x *repState) (string, error) {
	var res harness.AvailabilityResult
	_, err := x.runSpan("harness.RunScenario", func() (err error) {
		res, err = harness.RunScenario(o.cfg, o.w, o.scn, o.interval, x.bus)
		return err
	})
	if err != nil {
		return "", err
	}
	inst, ok := res.FinalInst.(*workload.RingInstance)
	if !ok {
		return "", fmt.Errorf("scenario finished without a ring instance")
	}
	for me, sum := range inst.Sums {
		if want := workload.ExpectedRingSum(o.w.N, o.w.Iters, me); sum != want {
			return "", fmt.Errorf("rank %d finished with sum %d, failure-free run gives %d", me, sum, want)
		}
	}
	x.counts.cells++
	x.counts.restarts += res.Failures
	x.counts.simTime += res.Wall
	return fmt.Sprintf("scenario %s [%s] wall=%s ckpts=%d failures=%d aborts=%d replayed=%d attempts=%d ram=%d burst=%d central=%d",
		o.label, o.scn, secs(res.Wall), res.Checkpoints, res.Failures, res.CycleAborts, res.Replayed,
		res.Attempts, res.RecoveredRAM, res.RecoveredBurst, res.RecoveredCentral), nil
}

// runCell is one simulation built from the harness's public parts:
// NewCluster, Workload.Launch with the footprint hooks, an optional
// ScheduleCheckpoint (at < 0 means none), K.Run and Coord.Reports. Each step
// is a span; the kernel's and the storage system's own counts are added to
// the repetition's trace counts. With a nil tracer and bus it is the plain
// untraced assembly.
func (x *repState) runCell(cfg harness.ClusterConfig, w workload.Workload, at sim.Time) (*harness.Cluster, []*cr.CycleReport, error) {
	cell := x.tr.begin("cell")
	defer x.tr.end(cell)

	s := x.tr.begin("harness.NewCluster")
	c, err := harness.NewCluster(cfg)
	x.tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	if x.bus != nil {
		c.AttachObs(x.bus)
	}

	s = x.tr.begin("workload.Launch")
	inst, err := w.Launch(c.Job)
	if err == nil {
		for i := 0; i < c.Job.Size(); i++ {
			i := i
			c.Coord.Controller(i).FootprintFn = func() int64 { return inst.Footprint(i) }
		}
	}
	x.tr.end(s)
	if err != nil {
		return nil, nil, err
	}

	if at >= 0 {
		s = x.tr.begin("cr.ScheduleCheckpoint")
		c.Coord.ScheduleCheckpoint(at)
		x.tr.end(s)
	}

	ns, err := x.runSpan("sim.Run", c.K.Run)
	if err != nil {
		return nil, nil, err
	}
	x.counts.kernelRunNs += ns
	if !c.Job.Finished() {
		return nil, nil, fmt.Errorf("run ended with unfinished ranks")
	}

	var reps []*cr.CycleReport
	if at >= 0 {
		s = x.tr.begin("cr.Reports")
		reps, err = c.Coord.Reports()
		x.tr.end(s)
		if err != nil {
			return nil, nil, err
		}
	}
	x.counts.cells++
	x.counts.events += c.K.EventsProcessed()
	x.counts.simTime += c.K.Now()
	if m := c.Storage.MaxConcurrent(); m > x.counts.maxConcurrent {
		x.counts.maxConcurrent = m
	}
	if cfg.MPI.LogMessages {
		for i := 0; i < c.Job.Size(); i++ {
			x.counts.bytesLogged += c.Job.Rank(i).Stats().BytesLogged
		}
	}
	return c, reps, nil
}
