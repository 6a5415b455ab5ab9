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
// across a bounded worker pool with results bit-identical to the serial
// Sweep. The Runner also memoizes baselines: a failure-free run never
// schedules a checkpoint, so its completion time depends only on the
// canonicalized cluster configuration and the workload identity, and sweeps
// or figure regeneration never re-run an identical baseline.
//
// A Runner is safe for concurrent use by multiple goroutines.
type Runner struct {
	workers int

	// shared: mutex serializes the memo table and aggregate across worker goroutines
	mu        sync.Mutex
	baselines map[string]*baselineEntry // guarded by mu
	hits      int                       // guarded by mu
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
	if ok {
		r.hits++
	} else {
		e = &baselineEntry{}
		r.baselines[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.t, e.err = Baseline(cfg, w) })
	return e.t, e.err
}

// measure runs one checkpointed cell, taking the baseline from the cache,
// with an optional caller-owned bus attached to the checkpointed run
// (RunCaptured's per-cell sinks hang off it). With an aggregate installed,
// the cell's metrics are merged into it.
func (r *Runner) measure(c Cell, bus *obs.Bus) (Result, error) {
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

// Run measures every cell on the worker pool and returns the results in
// cell order. Cells are independent simulations, so the schedule cannot
// change any result — only the wall-clock time. On failure the first error
// in cell order is returned along with the results computed so far.
func (r *Runner) Run(cells []Cell) ([]Result, error) {
	out := make([]Result, len(cells))
	err := r.ForEach(len(cells), func(i int) (err error) {
		if out[i], err = r.measure(cells[i], nil); err != nil {
			err = fmt.Errorf("%s: %w", cellLabel(i, cells[i]), err)
		}
		return err
	})
	return out, err
}

// ForEach runs fn(0..n-1) on the worker pool and waits for all of them.
// It is the generic scheduling primitive under Run for experiment grids
// that are not Measure-shaped (fault-injection runs, client scaling, ...).
// Panics in fn are captured as errors so a misbehaving cell cannot take
// down an embedding service. The first error in index order is returned.
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

// Sweep measures the effective delay across group sizes and issuance times
// concurrently. It is the parallel equivalent of the serial Sweep: same
// matrix shape, bit-identical results, indexed [groupSize][issuedAt]. The
// baseline is computed once up front so the fan-out starts with a warm
// cache.
func (r *Runner) Sweep(cfg ClusterConfig, w workload.Workload, groupSizes []int, times []sim.Time) ([][]Result, error) {
	if _, err := r.Baseline(cfg, w); err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(groupSizes)*len(times))
	for _, gs := range groupSizes {
		for _, at := range times {
			c := cfg
			c.CR.GroupSize = gs
			cells = append(cells, Cell{Config: c, Workload: w, IssuedAt: at})
		}
	}
	flat, err := r.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("harness: sweep: %w", err)
	}
	out := make([][]Result, len(groupSizes))
	for gi := range groupSizes {
		out[gi] = flat[gi*len(times) : (gi+1)*len(times) : (gi+1)*len(times)]
	}
	return out, nil
}
