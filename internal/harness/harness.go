// Package harness builds simulated clusters and measures the paper's
// checkpoint-delay metrics: it runs a workload once without checkpointing
// (baseline) and once with a checkpoint issued at a chosen time, and reports
// the Effective Checkpoint Delay (Section 5) along with the Individual and
// Total Checkpoint Times from the cycle report.
//
// One function runs every simulation: attempt, which Run wraps for a fresh
// launch and RunScenario chains across restarts. Runner is a worker pool
// that memoizes baselines; its Measure gives the results of a serial
// Baseline and MeasureWithBaseline at any worker count, and records into
// the caller's bus, so what a cell records and how cells merge is the
// caller's (cmd/ckptsim, the figures' aggregate). All entry points
// return errors instead of panicking, so the stack is usable as an
// embedded service component.
package harness

import (
	"fmt"

	"gbcr/internal/cr"
	"gbcr/internal/cr/protocol"
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
	_, err := cfg.resolve()
	return err
}

// resolve is Validate, returning the checkpoint protocol cfg selects.
func (cfg ClusterConfig) resolve() (protocol.Kind, error) {
	switch {
	case cfg.N <= 0:
		return "", fmt.Errorf("harness: cluster needs at least one rank, got N=%d", cfg.N)
	case cfg.Storage.AggregateBW <= 0:
		return "", fmt.Errorf("harness: storage AggregateBW must be positive, got %v", cfg.Storage.AggregateBW)
	case cfg.Storage.ClientBW <= 0:
		return "", fmt.Errorf("harness: storage ClientBW must be positive, got %v", cfg.Storage.ClientBW)
	case cfg.Fabric.LinkBW <= 0:
		return "", fmt.Errorf("harness: fabric LinkBW must be positive, got %v", cfg.Fabric.LinkBW)
	case cfg.CR.GroupSize < 0:
		return "", fmt.Errorf("harness: checkpoint group size must be >= 0, got %d", cfg.CR.GroupSize)
	case cfg.CR.GroupSize > cfg.N:
		return "", fmt.Errorf("harness: checkpoint group size %d exceeds job size %d", cfg.CR.GroupSize, cfg.N)
	}
	proto, err := cfg.CR.ResolveProtocol(cfg.N, cfg.MPI.LogMessages)
	if err != nil {
		return "", fmt.Errorf("harness: %w", err)
	}
	if err := cfg.Tiers.Validate(cfg.N); err != nil {
		return "", fmt.Errorf("harness: %w", err)
	}
	if cfg.Tiers.Mode.Tiered() && !proto.Blocking() {
		return "", fmt.Errorf("harness: storage mode %q requires a blocking protocol; the uncoordinated protocol commits per rank on central-write completion", cfg.Tiers.Mode)
	}
	return proto, nil
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

// Baseline runs the workload with no checkpoint and returns its completion
// time.
func Baseline(cfg ClusterConfig, w workload.Workload) (sim.Time, error) {
	c, _, err := Run(cfg, w, nil)
	if err != nil {
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
// to the checkpointed run. A checkpoint that stopped every rank only once it
// had finished delayed nothing, whatever its cycle's times, and is an error.
func measureWithBaselineObs(cfg ClusterConfig, w workload.Workload, issuedAt, baseline sim.Time, bus *obs.Bus) (Result, error) {
	c, _, err := Run(cfg, w, bus, issuedAt)
	if err != nil {
		return Result{}, err
	}
	reps, err := c.Coord.Reports()
	if err == nil && len(reps) != 1 {
		err = fmt.Errorf("expected 1 checkpoint cycle, got %d (issued at %v, job finished at %v)",
			len(reps), issuedAt, c.Job.FinishTime())
	} else if err == nil && stoppedAfterFinish(c.Job, reps[0]) {
		err = fmt.Errorf("the checkpoint issued at %v reached every rank after it finished (job finished at %v)",
			issuedAt, c.Job.FinishTime())
	}
	if err != nil {
		return Result{}, fmt.Errorf("harness: checkpointed run: %w", err)
	}
	return Result{Workload: w.Name(), GroupSize: cfg.CR.GroupSize, IssuedAt: issuedAt,
		Baseline: baseline, WithCkpt: c.Job.FinishTime(), Report: reps[0]}, nil
}

// stoppedAfterFinish reports whether every rank reached the cycle's safe
// point at or after its own finish.
func stoppedAfterFinish(j *mpi.Job, rep *cr.CycleReport) bool {
	for i, rec := range rep.Records {
		if rec.SafePointAt < j.Rank(i).FinishedAt() {
			return false
		}
	}
	return true
}
