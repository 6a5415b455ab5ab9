// Package harness builds simulated clusters and measures the paper's
// checkpoint-delay metrics: it runs a workload once without checkpointing
// (baseline) and once with a checkpoint issued at a chosen time, and reports
// the Effective Checkpoint Delay (Section 5) along with the Individual and
// Total Checkpoint Times from the cycle report.
//
// Two execution engines are provided. The free functions (Baseline,
// MeasureObserved, Sweep) run serially and are the reference implementation;
// Runner schedules independent measurement cells on a worker pool and
// memoizes baselines, so large sweep matrices regenerate in parallel with
// results bit-identical to the serial path. All entry points return errors
// instead of panicking, so the stack is usable as an embedded service
// component.
package harness

import (
	"fmt"

	"gbcr/internal/cr"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// ClusterConfig assembles the full stack's parameters.
type ClusterConfig struct {
	N       int
	Seed    int64
	Storage storage.Config
	Fabric  ib.Config
	MPI     mpi.Config
	CR      cr.Config
	// Tiers selects the checkpoint storage stack. The zero value is the
	// one-level stack [central]: every write goes to Storage.
	Tiers tier.Config
}

// Validate reports whether the configuration can be assembled into a
// cluster. It front-runs the constructor invariants of the storage and
// fabric layers so callers get an error instead of a panic.
func (cfg ClusterConfig) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("harness: cluster needs at least one rank, got N=%d", cfg.N)
	}
	if cfg.Storage.AggregateBW <= 0 {
		return fmt.Errorf("harness: storage AggregateBW must be positive, got %v", cfg.Storage.AggregateBW)
	}
	if cfg.Storage.ClientBW <= 0 {
		return fmt.Errorf("harness: storage ClientBW must be positive, got %v", cfg.Storage.ClientBW)
	}
	if cfg.Fabric.LinkBW <= 0 {
		return fmt.Errorf("harness: fabric LinkBW must be positive, got %v", cfg.Fabric.LinkBW)
	}
	if cfg.CR.GroupSize < 0 {
		return fmt.Errorf("harness: checkpoint group size must be >= 0, got %d", cfg.CR.GroupSize)
	}
	if cfg.CR.GroupSize > cfg.N {
		return fmt.Errorf("harness: checkpoint group size %d exceeds job size %d", cfg.CR.GroupSize, cfg.N)
	}
	proto, err := cfg.CR.ResolveProtocol(cfg.N, cfg.MPI.LogMessages)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if err := cfg.Tiers.Validate(cfg.N); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if cfg.Tiers.Mode.Tiered() && !proto.Blocking() {
		return fmt.Errorf("harness: storage mode %q requires a blocking protocol; the uncoordinated protocol commits per rank on central-write completion", cfg.Tiers.Mode)
	}
	return nil
}

// PaperCluster returns the evaluation testbed configuration: 32 compute
// nodes on InfiniBand with 4 PVFS2 storage servers (~140 MB/s aggregate).
func PaperCluster(n int) ClusterConfig {
	crCfg := cr.DefaultConfig()
	// Fixed per-process snapshot setup (BLCR process freeze, checkpoint
	// file creation): paid once per member per checkpoint, which is what
	// makes very small checkpoint groups pay coordination many times over.
	crCfg.LocalSetup = 500 * sim.Millisecond
	return ClusterConfig{
		N:       n,
		Seed:    1,
		Storage: storage.PaperConfig(),
		Fabric:  ib.PaperConfig(),
		MPI:     mpi.DefaultConfig(),
		CR:      crCfg,
	}
}

// Cluster is one assembled simulation.
type Cluster struct {
	K       *sim.Kernel
	Storage *storage.System
	Fabric  *ib.Fabric
	Job     *mpi.Job
	Coord   *cr.Coordinator
	// Tiers is the checkpoint storage stack every snapshot write and
	// restart read-back goes through; its cold tier is Storage.
	Tiers *tier.Hierarchy
}

// NewCluster validates the configuration and builds the stack.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel(cfg.Seed)
	st, err := storage.New(k, cfg.Storage)
	if err != nil {
		return nil, err
	}
	f, err := ib.New(k, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	j, err := mpi.NewJob(k, f, cfg.MPI, cfg.N)
	if err != nil {
		return nil, err
	}
	h, err := tier.NewHierarchy(k, cfg.Tiers, cfg.N, st, cfg.Fabric.LinkBW)
	if err != nil {
		return nil, err
	}
	co, err := cr.New(k, j, h, cfg.CR)
	if err != nil {
		return nil, err
	}
	return &Cluster{K: k, Storage: st, Fabric: f, Job: j, Coord: co, Tiers: h}, nil
}

// AttachObs wires an observability bus through every layer of the cluster:
// kernel scheduling, storage transfers, fabric connection management, MPI
// protocol decisions, and the C/R cycle all emit onto it, and its registry
// accumulates the per-layer counters and histograms. A nil bus detaches.
// The bus is deliberately not part of ClusterConfig: configs are memo keys
// for baseline caching, and observation must not change identity.
func (c *Cluster) AttachObs(bus *obs.Bus) {
	obs.ObserveKernel(c.K, bus)
	c.Storage.SetObs(bus)
	c.Tiers.SetObs(bus)
	c.Fabric.SetObs(bus)
	c.Job.SetObs(bus)
	c.Coord.SetObs(bus)
}

// launch wires a workload instance into the cluster's controllers.
func (c *Cluster) launch(w workload.Workload) (workload.Instance, error) {
	inst, err := w.Launch(c.Job)
	if err != nil {
		return nil, err
	}
	c.footprints(inst)
	return inst, nil
}

// footprints has every controller ask inst for its rank's footprint at
// snapshot time.
func (c *Cluster) footprints(inst workload.Instance) {
	for i := 0; i < c.Job.Size(); i++ {
		c.Coord.Controller(i).FootprintFn = func() int64 { return inst.Footprint(i) }
	}
}

// run drives the kernel to completion and checks the job finished. The
// label names the run in errors; it is not an obs event kind.
func (c *Cluster) run(label string) error {
	if err := c.K.Run(); err != nil {
		c.K.Shutdown() // a failed run leaves its ranks parked; release their goroutines
		return fmt.Errorf("harness: %s run failed: %w", label, err)
	}
	if !c.Job.Finished() {
		return fmt.Errorf("harness: %s run ended with unfinished ranks", label)
	}
	return nil
}

// Result reports one Effective Checkpoint Delay measurement.
type Result struct {
	Workload  string
	GroupSize int
	IssuedAt  sim.Time
	Baseline  sim.Time // failure-free completion time
	WithCkpt  sim.Time // completion time with one checkpoint
	Report    *cr.CycleReport
}

// EffectiveDelay is the increase in application running time caused by the
// checkpoint.
func (r Result) EffectiveDelay() sim.Time { return r.WithCkpt - r.Baseline }

// MaxIndividual is the largest per-process downtime.
func (r Result) MaxIndividual() sim.Time { return r.Report.MaxIndividual() }

// Total is the Total Checkpoint Time.
func (r Result) Total() sim.Time { return r.Report.Total() }

func (r Result) String() string {
	return fmt.Sprintf("%s group=%d t=%v: effective=%v individual=%v total=%v",
		r.Workload, r.GroupSize, r.IssuedAt, r.EffectiveDelay(), r.MaxIndividual(), r.Total())
}

// Baseline runs the workload with no checkpoint and returns its completion
// time.
func Baseline(cfg ClusterConfig, w workload.Workload) (sim.Time, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := c.launch(w); err != nil {
		return 0, err
	}
	if err := c.run("baseline"); err != nil {
		return 0, err
	}
	return c.Job.FinishTime(), nil
}

// MeasureWithBaseline runs the workload with one checkpoint at issuedAt,
// using a previously measured baseline (so sweeps don't re-run it).
func MeasureWithBaseline(cfg ClusterConfig, w workload.Workload, issuedAt, baseline sim.Time) (Result, error) {
	return measureWithBaselineObs(cfg, w, issuedAt, baseline, nil)
}

// measureWithBaselineObs is MeasureWithBaseline with an optional bus attached
// to the checkpointed run.
func measureWithBaselineObs(cfg ClusterConfig, w workload.Workload, issuedAt, baseline sim.Time, bus *obs.Bus) (Result, error) {
	if issuedAt < 0 {
		return Result{}, fmt.Errorf("harness: checkpoint issuance time %v is negative", issuedAt)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	c.AttachObs(bus)
	if _, err := c.launch(w); err != nil {
		return Result{}, err
	}
	c.Coord.ScheduleCheckpoint(issuedAt)
	if err := c.run("checkpointed"); err != nil {
		return Result{}, err
	}
	reps, err := c.Coord.Reports()
	if err != nil {
		return Result{}, fmt.Errorf("harness: checkpointed run: %w", err)
	}
	if len(reps) != 1 {
		return Result{}, fmt.Errorf("harness: expected 1 checkpoint cycle, got %d (issued at %v, job finished at %v)",
			len(reps), issuedAt, c.Job.FinishTime())
	}
	return Result{
		Workload:  w.Name(),
		GroupSize: cfg.CR.GroupSize,
		IssuedAt:  issuedAt,
		Baseline:  baseline,
		WithCkpt:  c.Job.FinishTime(),
		Report:    reps[0],
	}, nil
}

// MeasureObserved runs baseline and checkpointed executions and reports the
// delay metrics, with an observability bus attached to the checkpointed run
// (bus may be nil): events from every layer flow to the bus's sinks and its
// registry accumulates the run's metrics. The baseline run is not observed,
// so the exported timeline covers exactly the checkpointed execution.
func MeasureObserved(cfg ClusterConfig, w workload.Workload, issuedAt sim.Time, bus *obs.Bus) (Result, error) {
	base, err := Baseline(cfg, w)
	if err != nil {
		return Result{}, err
	}
	return measureWithBaselineObs(cfg, w, issuedAt, base, bus)
}

// Sweep measures the effective delay across group sizes and issuance times,
// serially and on the calling goroutine. groupSizes uses 0 for the regular
// protocol ("All"). The result is indexed [groupSize][issuedAt] in the given
// orders. It is the reference implementation for Runner.Sweep, which runs
// the same matrix concurrently with bit-identical results.
//
//lint:allow-unused the serial reference the runner-equivalence tests compare Runner.Sweep against
func Sweep(cfg ClusterConfig, w workload.Workload, groupSizes []int, times []sim.Time) ([][]Result, error) {
	base, err := Baseline(cfg, w)
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(groupSizes))
	for gi, gs := range groupSizes {
		out[gi] = make([]Result, len(times))
		for ti, at := range times {
			c := cfg
			c.CR.GroupSize = gs
			res, err := MeasureWithBaseline(c, w, at, base)
			if err != nil {
				return nil, fmt.Errorf("harness: sweep cell group=%d at=%v: %w", gs, at, err)
			}
			out[gi][ti] = res
		}
	}
	return out, nil
}
