package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"gbcr/internal/cr"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// Runner is the concurrent experiment engine. Every measurement cell —
// one (config, workload, issuance time) simulation — is an independent,
// deterministic, single-threaded run, so a sweep matrix can be scheduled
// across a bounded worker pool (ForEach) with results bit-identical to a
// serial loop of Baseline and MeasureWithBaseline. The Runner also memoizes
// baselines: a failure-free run never schedules a checkpoint, so its
// completion time depends only on the canonicalized cluster configuration
// and the workload identity, and sweeps or figure regeneration never re-run
// an identical baseline.
//
// A Runner is safe for concurrent use by multiple goroutines.
type Runner struct {
	workers int

	// shared: mutex serializes the memo table and aggregate across worker goroutines
	mu        sync.Mutex
	baselines map[string]*baselineEntry // guarded by mu
	agg       *obs.Aggregate            // guarded by mu
}

// SetAggregate installs a cross-run metrics aggregate: every checkpointed
// cell measured afterwards runs with a private observability bus and merges
// its registry snapshot into agg on completion. The merge is commutative
// (counter sums; histogram count/sum/min/max), so the aggregate is identical
// at any worker count. A nil agg turns collection back off.
func (r *Runner) SetAggregate(agg *obs.Aggregate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg = agg
}

// baselineEntry memoizes one baseline run. The sync.Once dedups in-flight
// computation: concurrent cells needing the same baseline run it once and
// share the result.
type baselineEntry struct {
	// shared: mutex dedups the in-flight baseline run across workers
	once sync.Once
	t    sim.Time
	err  error
}

// NewRunner returns a Runner with the given worker-pool bound; workers <= 0
// selects GOMAXPROCS, the default.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, baselines: make(map[string]*baselineEntry)}
}

// BaselineKey canonicalizes a cell into its baseline-cache key. A baseline
// run never starts a checkpoint cycle, so it writes no checkpoint and no
// cr.Config or tier.Config field can influence its completion time; the CR
// and Tiers sections are therefore normalized to the zero value, which is
// what lets a sweep over checkpoint group sizes or storage modes share one
// baseline. Every other ClusterConfig field (topology, seed, storage,
// fabric, MPI) and every exported workload parameter is part of the key.
func BaselineKey(cfg ClusterConfig, w workload.Workload) string {
	c := cfg
	c.CR = cr.Config{}
	c.Tiers = tier.Config{}
	return fmt.Sprintf("%+v|%s|%#v", c, w.Name(), w)
}

// Baseline returns the workload's failure-free completion time, memoized by
// BaselineKey.
func (r *Runner) Baseline(cfg ClusterConfig, w workload.Workload) (sim.Time, error) {
	key := BaselineKey(cfg, w)
	r.mu.Lock()
	e, ok := r.baselines[key]
	if !ok {
		e = &baselineEntry{}
		r.baselines[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.t, e.err = Baseline(cfg, w) })
	return e.t, e.err
}

// Measure runs one checkpointed cell, taking the baseline from the cache,
// with an optional caller-owned bus attached to the checkpointed run; give
// each cell a bus of its own, as ckptsim's -at list does, and the cells'
// recordings merge in cell order whatever the schedule. The baseline run is
// not observed, so the bus's timeline covers exactly the checkpointed
// execution. With an aggregate installed, the cell's metrics are merged into
// it. Cells are independent simulations, so calls from ForEach's workers
// give the results a serial loop would.
func (r *Runner) Measure(c Cell, bus *obs.Bus) (Result, error) {
	base, err := r.Baseline(c.Config, c.Workload)
	if err != nil {
		return Result{}, err
	}
	r.mu.Lock()
	agg := r.agg
	r.mu.Unlock()
	if bus == nil && agg != nil {
		bus = obs.NewBus()
	}
	res, err := measureWithBaselineObs(c.Config, c.Workload, c.IssuedAt, base, bus)
	if err == nil && agg != nil {
		agg.Merge(bus.Metrics().Snapshot())
	}
	return res, err
}

// Cell is one schedulable measurement: a cluster configuration (whose
// CR.GroupSize selects the protocol), a workload, and a checkpoint issuance
// time.
type Cell struct {
	Config   ClusterConfig
	Workload workload.Workload
	IssuedAt sim.Time
}

// ForEach runs fn(0..n-1) on the worker pool and waits for all of them.
// It is the one scheduling primitive: figure grids and ckptsim's -at lists
// call Measure (or run fault-injection scenarios, storage-only runs, ...)
// from fn. Panics in fn are captured as errors so a
// misbehaving cell cannot take down an embedding service. The first error
// in index order is returned.
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	// shared: channel distributes cell indices to the worker pool
	idx := make(chan int)
	// shared: mutex joins the worker pool before ForEach returns
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// shared: channel worker goroutines drain idx and write disjoint errs slots
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = protect(i, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// protect runs fn(i), converting a panic into an error that carries the
// panicking stack (its frames are still below the deferred recover).
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: cell %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(i)
}
