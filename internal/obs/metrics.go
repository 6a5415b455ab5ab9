package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"gbcr/internal/sim"
)

// metricKey identifies one instrument in a registry.
type metricKey struct {
	layer Layer
	name  string
}

// Metrics is a sim-time metrics registry: counters and histograms keyed by
// (layer, name). Instruments are created on first lookup and live for the
// registry's lifetime. A nil *Metrics returns nil instruments, and nil
// instruments ignore Add/Observe, so instrumented code needs no nil checks.
//
// A Metrics is confined to one simulation (the kernel serializes all
// emission); use Aggregate to combine registries from concurrent runs.
type Metrics struct {
	counters map[metricKey]*Counter
	hists    map[metricKey]*Histogram
	// Registration order, kept so snapshots never range over the maps
	// (the simdeterminism contract: no result-feeding map iteration).
	ckeys []metricKey
	hkeys []metricKey
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[metricKey]*Counter),
		hists:    make(map[metricKey]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (m *Metrics) Counter(l Layer, name string) *Counter {
	if m == nil {
		return nil
	}
	k := metricKey{l, name}
	c := m.counters[k]
	if c == nil {
		c = &Counter{}
		m.counters[k] = c
		m.ckeys = append(m.ckeys, k)
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil (no-op) histogram.
func (m *Metrics) Histogram(l Layer, name string) *Histogram {
	if m == nil {
		return nil
	}
	k := metricKey{l, name}
	h := m.hists[k]
	if h == nil {
		h = &Histogram{}
		m.hists[k] = h
		m.hkeys = append(m.hkeys, k)
	}
	return h
}

// Counter is a monotonically growing sum. The zero value is ready to use; a
// nil *Counter ignores additions.
type Counter struct {
	v int64
}

// Add increases the counter. Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum, 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates sim-time durations: count, sum, min, and max. The
// zero value is ready to use; a nil *Histogram ignores observations.
type Histogram struct {
	count    int64
	sum      sim.Time
	min, max sim.Time
}

// Observe records one duration. Safe on a nil histogram.
func (h *Histogram) Observe(d sim.Time) {
	if h == nil {
		return
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if h.count == 0 || d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

// Count returns the number of observations, 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations, 0 on a nil histogram.
func (h *Histogram) Sum() sim.Time {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation, 0 when empty or nil.
func (h *Histogram) Min() sim.Time {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation, 0 when empty or nil.
func (h *Histogram) Max() sim.Time {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the average observation, 0 when empty or nil.
func (h *Histogram) Mean() sim.Time {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// CounterValue is one exported counter.
type CounterValue struct {
	Layer Layer  `json:"layer"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one exported histogram, with times in nanoseconds of
// simulated time.
type HistogramValue struct {
	Layer Layer  `json:"layer"`
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum_ns"`
	Min   int64  `json:"min_ns"`
	Max   int64  `json:"max_ns"`
}

// Snapshot is a deterministic, serializable view of a registry, sorted by
// (layer, name). Snapshots from independent runs can be merged with
// Aggregate; the merge is commutative, so the combined result does not
// depend on completion order.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot exports the registry's current values. Safe on a nil registry
// (returns an empty snapshot).
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	ckeys := append([]metricKey(nil), m.ckeys...)
	sortKeys(ckeys)
	for _, k := range ckeys {
		s.Counters = append(s.Counters, CounterValue{
			Layer: k.layer, Name: k.name, Value: m.counters[k].Value(),
		})
	}
	hkeys := append([]metricKey(nil), m.hkeys...)
	sortKeys(hkeys)
	for _, k := range hkeys {
		h := m.hists[k]
		s.Histograms = append(s.Histograms, HistogramValue{
			Layer: k.layer, Name: k.name, Count: h.Count(),
			Sum: int64(h.Sum()), Min: int64(h.Min()), Max: int64(h.Max()),
		})
	}
	return s
}

func sortKeys(keys []metricKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].name < keys[j].name
	})
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Aggregate combines metric snapshots from independent simulation runs. The
// merge is commutative and associative (counter sums; histogram count, sum,
// min, max), so the aggregated snapshot is identical no matter how the runs
// were scheduled — the property the concurrent Runner relies on. It is safe
// for concurrent use.
type Aggregate struct {
	// shared: mutex serializes merges from concurrent Runner workers
	mu sync.Mutex
	m  *Metrics // guarded by mu
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate { return &Aggregate{m: NewMetrics()} }

// Merge folds one snapshot into the aggregate. Empty histograms are skipped,
// so a histogram no run observed into is not exported.
func (a *Aggregate) Merge(s Snapshot) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range s.Counters {
		a.m.Counter(c.Layer, c.Name).Add(c.Value)
	}
	for _, v := range s.Histograms {
		if v.Count == 0 {
			continue
		}
		h := a.m.Histogram(v.Layer, v.Name)
		if h.count == 0 || sim.Time(v.Min) < h.min {
			h.min = sim.Time(v.Min)
		}
		if h.count == 0 || sim.Time(v.Max) > h.max {
			h.max = sim.Time(v.Max)
		}
		h.count += v.Count
		h.sum += sim.Time(v.Sum)
	}
}

// Snapshot exports the aggregated values, sorted by (layer, name).
func (a *Aggregate) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m.Snapshot()
}
