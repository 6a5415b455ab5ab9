// Package storage models a shared central storage system (the paper's PVFS2
// deployment: 4 servers, ~140 MB/s aggregate throughput, reached over IPoIB).
//
// The model is fluid-flow: every active transfer proceeds at a rate set by
// max-min fair sharing of the aggregate server throughput, additionally
// capped by the client's own link bandwidth. Whenever a transfer starts or
// finishes, the rates of all active transfers are recomputed and their
// completion events rescheduled. This directly reproduces the paper's
// "storage bottleneck" (Figure 1): with N concurrent writers each client
// obtains roughly min(clientBW, aggregateBW/N).
package storage

import (
	"errors"
	"fmt"
	"math"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// ErrUnavailable is the sentinel wrapped by every transfer failure caused by
// a storage availability window: transfers aborted mid-flight by a full
// outage and transfers started while the service is down. Callers that want
// to retry (the C/R cycle abort path) match it with errors.Is.
var ErrUnavailable = errors.New("storage service unavailable")

// MB is one mebibyte in bytes, matching the paper's MB/s reporting.
const MB = 1 << 20

// Config parameterizes a storage system.
type Config struct {
	// AggregateBW is the total server-side throughput in bytes/second
	// shared by all clients (the paper's testbed: ~140 MB/s).
	AggregateBW float64
	// ClientBW caps the rate of any single client in bytes/second (the
	// paper's testbed: a single writer obtains ~115 MB/s over IPoIB).
	ClientBW float64
	// OpenLatency is a fixed per-transfer setup cost (file create/open,
	// metadata round trip).
	OpenLatency sim.Time
	// Droop is the share of AggregateBW lost per doubling of the concurrent
	// clients beyond four, modelling congestion and unbalanced sharing at
	// high client counts: n > 4 clients share AggregateBW·(1 - Droop·log2(n/4)).
	// Zero means no droop.
	Droop float64
	// ShareJitter models the noise of Section 3.1 ("system noise, network
	// congestion, and unbalanced share of throughput... can significantly
	// increase the delay"): each transfer draws a capability factor from
	// [1-j, 1+j] that scales both its share weight and its achievable
	// client rate — a degraded client cannot use bandwidth reassigned to
	// it, so stragglers extend the makespan. Zero means a perfectly
	// uniform, noise-free system. Factors come from the kernel's
	// deterministic random source.
	ShareJitter float64
}

// PaperConfig returns the configuration matching the evaluation testbed in
// Section 6: four PVFS2 servers with about 140 MB/s aggregate throughput and
// about 115 MB/s from a single client.
func PaperConfig() Config {
	return Config{
		AggregateBW: 140 * MB,
		ClientBW:    116 * MB,
		OpenLatency: 2 * sim.Millisecond,
		// Mild congestion droop at high client counts, as observed in
		// Figure 1 where aggregate throughput sags slightly at 32 clients:
		// ~1% per doubling beyond 4.
		Droop: 0.01,
	}
}

// System is a shared storage service inside one simulation.
type System struct {
	k      *sim.Kernel
	cfg    Config
	bus    *obs.Bus
	active []*Transfer // insertion order: keeps same-time completions deterministic

	// availability scales the aggregate throughput during fault-injection
	// windows: 1 is healthy, 0 is a full outage (in-flight transfers abort
	// with ErrUnavailable), values in between model degraded service (a
	// storage server dropped out of the stripe set).
	availability float64

	// accounting; the bus's registry counts bytes, reads and aborts
	transfers     int
	maxConcurrent int
}

// New creates a storage system on the given kernel.
func New(k *sim.Kernel, cfg Config) (*System, error) {
	if cfg.AggregateBW <= 0 {
		return nil, fmt.Errorf("storage: AggregateBW must be positive, got %v", cfg.AggregateBW)
	}
	if cfg.ClientBW <= 0 {
		cfg.ClientBW = cfg.AggregateBW
	}
	return &System{k: k, cfg: cfg, availability: 1}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// SetObs attaches an observability bus (nil detaches). Transfer start and
// finish emit storage-layer events, every max-min rate recomputation is
// visible, and the bus's registry accumulates bytes and transfer counts.
func (s *System) SetObs(b *obs.Bus) { s.bus = b }

// Transfers reports how many transfers (reads and writes) have been started.
func (s *System) Transfers() int { return s.transfers }

// MaxConcurrent reports the peak number of simultaneous transfers observed.
func (s *System) MaxConcurrent() int { return s.maxConcurrent }

// SetAvailability changes the service's availability factor, modelling
// storage-server loss or degradation windows. factor is clamped to [0, 1]:
//
//   - 0 is a full outage — every in-flight transfer aborts immediately with
//     an error wrapping ErrUnavailable, and transfers started during the
//     window fail the same way;
//   - 0 < factor < 1 degrades service — in-flight transfers continue at
//     rates recomputed against factor×AggregateBW (their completion events
//     are rescheduled mid-transfer);
//   - 1 restores full service.
//
// Must be called from kernel context (an event or proc), like every other
// System method.
func (s *System) SetAvailability(factor float64) {
	factor = math.Max(0, math.Min(1, factor))
	if factor == s.availability {
		return
	}
	s.settle()
	s.availability = factor
	s.bus.Metrics().Counter(obs.LayerStorage, "availability_changes").Inc()
	s.bus.Emit(obs.Event{At: s.k.Now(), Rank: -1, Layer: obs.LayerStorage,
		Type: obs.Instant, What: obs.KindAvailability, Detail: fmt.Sprintf("factor=%g", factor),
		Arg: int64(factor * 100)})
	if factor == 0 {
		// Full outage: abort everything in flight. Iterate over a snapshot —
		// abort mutates s.active.
		inflight := append([]*Transfer(nil), s.active...)
		s.active = s.active[:0]
		for _, t := range inflight {
			t.abort(fmt.Errorf("transfer aborted by storage outage at %v: %w",
				s.k.Now(), ErrUnavailable))
		}
		return
	}
	s.reschedule()
}

// Transfer is one in-progress or completed storage access.
type Transfer struct {
	sys       *System
	total     float64
	remaining float64
	rate      float64
	weight    float64
	read      bool
	opened    bool // the open latency has elapsed; until then finishFn runs the open step
	last      sim.Time
	done      sim.Event
	finishFn  func() // t.finish, bound once: it runs the open step and every completion a rate recompute arms
	completed bool
	err       error
	started   sim.Time
	finished  sim.Time
	waiters   sim.Cond
	onDone    []func()
	doneBuf   [1]func() // onDone's first slot: most transfers have one callback
}

// Err returns the transfer's terminal error: nil for a successful (or still
// running) transfer, an error wrapping ErrUnavailable if it was aborted by a
// storage availability window.
func (t *Transfer) Err() error { return t.err }

// Start begins a write transfer of n bytes and returns immediately. Use Wait
// to block until completion.
func (s *System) Start(n int64) (*Transfer, error) { return s.begin(n, false) }

// StartRead begins a direction-tagged read transfer of n bytes (restart
// read-back). Reads share the aggregate pool with writes, but emit their own
// read-start/read-end events and honour the Read* bandwidth caps, so restart
// traffic stays distinguishable from checkpoint writes in traces and
// metrics.
func (s *System) StartRead(n int64) (*Transfer, error) { return s.begin(n, true) }

// begin starts one transfer in the given direction.
func (s *System) begin(n int64, read bool) (*Transfer, error) {
	if n < 0 {
		return nil, fmt.Errorf("storage: negative transfer size %d", n)
	}
	t := &Transfer{
		sys:       s,
		total:     float64(n),
		remaining: float64(n),
		weight:    1,
		read:      read,
		last:      s.k.Now(),
		started:   s.k.Now(),
	}
	t.finishFn = t.finish
	t.onDone = t.doneBuf[:0]
	if j := s.cfg.ShareJitter; j > 0 {
		t.weight = 1 + j*(2*s.k.Rand().Float64()-1)
	}
	s.transfers++
	if read {
		s.bus.Metrics().Counter(obs.LayerStorage, "reads").Inc()
		s.bus.Metrics().Counter(obs.LayerStorage, "read_bytes").Add(n)
		s.bus.Emit(obs.Event{At: s.k.Now(), Rank: -1, Layer: obs.LayerStorage,
			Type: obs.Instant, What: obs.KindReadStart, Arg: n})
	} else {
		s.bus.Metrics().Counter(obs.LayerStorage, "transfers").Inc()
		s.bus.Metrics().Counter(obs.LayerStorage, "bytes").Add(n)
		s.bus.Emit(obs.Event{At: s.k.Now(), Rank: -1, Layer: obs.LayerStorage,
			Type: obs.Instant, What: obs.KindXferStart, Arg: n})
	}
	if s.cfg.OpenLatency > 0 {
		s.k.After(s.cfg.OpenLatency, t.finishFn)
	} else {
		t.open()
	}
	return t, nil
}

// open ends the transfer's open latency: it joins the active set and the
// rates are recomputed.
func (t *Transfer) open() {
	t.opened = true
	if t.completed {
		return // cancelled while the open was in flight
	}
	s := t.sys
	if s.availability == 0 {
		// The service went down between Start and the open completing
		// (or was already down): fail the transfer rather than hang.
		t.abort(fmt.Errorf("transfer rejected by storage outage at %v: %w",
			s.k.Now(), ErrUnavailable))
		return
	}
	if t.remaining <= 0 {
		t.complete()
		return
	}
	s.settle()
	s.active = append(s.active, t)
	if len(s.active) > s.maxConcurrent {
		s.maxConcurrent = len(s.active)
	}
	s.reschedule()
}

// Write performs a blocking write of n bytes on behalf of p and returns the
// elapsed transfer time. A transfer aborted by a storage availability window
// surfaces here as an error wrapping ErrUnavailable.
func (s *System) Write(p *sim.Proc, n int64) (sim.Time, error) {
	t, err := s.Start(n)
	if err != nil {
		return 0, err
	}
	t.Wait(p)
	if t.err != nil {
		return t.Elapsed(), t.err
	}
	return t.Elapsed(), nil
}

// Read performs a blocking read of n bytes on behalf of p. Reads share the
// aggregate pool and the per-client cap with writes and are direction-tagged:
// they emit read-start/read-end events.
func (s *System) Read(p *sim.Proc, n int64) (sim.Time, error) {
	t, err := s.StartRead(n)
	if err != nil {
		return 0, err
	}
	t.Wait(p)
	return t.Elapsed(), t.err
}

// Wait parks p until the transfer completes. Interrupts received while
// waiting are re-posted as pending once the wait completes.
func (t *Transfer) Wait(p *sim.Proc) {
	interrupted := false
	for !t.completed {
		if t.waiters.Wait(p, "storage transfer") {
			interrupted = true
		}
	}
	if interrupted {
		p.Interrupt()
	}
}

// Elapsed returns the wall time the transfer took (including open latency),
// or the time spent so far if it is still running.
func (t *Transfer) Elapsed() sim.Time {
	if t.completed {
		return t.finished - t.started
	}
	return t.sys.k.Now() - t.started
}

// settle charges elapsed time against every active transfer's remaining
// bytes at its current rate.
func (s *System) settle() {
	now := s.k.Now()
	for _, t := range s.active {
		dt := (now - t.last).Seconds()
		if dt > 0 {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
		t.last = now
	}
}

// reschedule assigns fresh rates and completion events to all active
// transfers. Must be called with settled state. Under ShareJitter the
// aggregate is divided weight-proportionally instead of evenly.
func (s *System) reschedule() {
	n := len(s.active)
	if n == 0 {
		return
	}
	s.bus.Metrics().Counter(obs.LayerStorage, "rate_recomputes").Inc()
	s.bus.Emit(obs.Event{At: s.k.Now(), Rank: -1, Layer: obs.LayerStorage,
		Type: obs.Instant, What: obs.KindRateRecompute, Arg: int64(n)})
	agg := s.cfg.AggregateBW * s.availability
	if n > 4 && s.cfg.Droop != 0 {
		agg *= 1 - s.cfg.Droop*math.Log2(float64(n)/4)
	}
	var sumW float64
	for _, t := range s.active {
		sumW += t.weight
	}
	for _, t := range s.active {
		t.rate = math.Min(s.cfg.ClientBW*t.weight, agg*t.weight/sumW)
	}
	// A rate so low that the completion lies past the end of simulated time
	// (a near-zero degrade factor) arms no event: converted, the duration
	// would overflow the clock. The SetAvailability that ends the window
	// reschedules it.
	horizon := float64(math.MaxInt64 - s.k.Now())
	for _, t := range s.active {
		t.done.Cancel()
		t.done = sim.Event{}
		dur := math.Ceil(t.remaining / t.rate * float64(sim.Second))
		if dur >= horizon {
			continue
		}
		t.done = s.k.After(sim.Time(dur), t.finishFn)
	}
}

// finish handles the open event and then every completion event for t.
func (t *Transfer) finish() {
	if !t.opened {
		t.open()
		return
	}
	s := t.sys
	s.settle()
	// Tolerate sub-byte residue from fixed-point event rounding. More than
	// a byte means the rate bookkeeping is corrupt; abort the simulation
	// rather than return a wrong completion time.
	if t.remaining > 1 {
		s.k.Fail(fmt.Errorf("storage: completion fired with %.1f bytes left", t.remaining))
		return
	}
	s.remove(t)
	t.complete()
	s.reschedule()
}

// OnDone registers fn to run when the transfer finishes — successfully or by
// abort (immediately if it already has). Event-driven callers use it instead
// of Wait and must check Err inside fn to distinguish the two outcomes.
func (t *Transfer) OnDone(fn func()) {
	if t.completed {
		fn()
		return
	}
	t.onDone = append(t.onDone, fn)
}

// Cancel abandons an in-flight transfer on its owner's initiative (a cycle
// aborting under a member's write): it stops consuming bandwidth and ends
// like an outage abort, with Err() reporting err. A no-op once finished.
func (t *Transfer) Cancel(err error) {
	if t.completed {
		return
	}
	s := t.sys
	s.settle()
	s.remove(t)
	t.abort(err)
	s.reschedule()
}

// remove takes t out of the active set (a no-op while its open is pending).
func (s *System) remove(t *Transfer) {
	for i, a := range s.active {
		if a == t {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// abort terminates the transfer with err: its completion event is cancelled,
// waiters wake, and OnDone callbacks fire with Err() set. The caller is
// responsible for removing t from s.active first (abort never runs on a
// transfer that should keep consuming bandwidth).
func (t *Transfer) abort(err error) {
	if t.completed {
		return
	}
	s := t.sys
	t.done.Cancel()
	t.done = sim.Event{}
	t.err = err
	t.completed = true
	t.finished = s.k.Now()
	s.bus.Metrics().Counter(obs.LayerStorage, "xfer_aborts").Inc()
	s.bus.Emit(obs.Event{At: t.finished, Rank: -1, Layer: obs.LayerStorage,
		Type: obs.Instant, What: obs.KindXferAbort, Arg: int64(t.remaining)})
	t.waiters.Broadcast()
	t.fireDone()
}

func (t *Transfer) complete() {
	t.remaining = 0
	t.completed = true
	t.finished = t.sys.k.Now()
	hist, what := "xfer_time", obs.KindXferEnd
	if t.read {
		hist, what = "read_time", obs.KindReadEnd
	}
	s := t.sys
	s.bus.Metrics().Histogram(obs.LayerStorage, hist).Observe(t.Elapsed())
	s.bus.Emit(obs.Event{At: t.finished, Rank: -1, Layer: obs.LayerStorage,
		Type: obs.Instant, What: what, Arg: int64(t.total)})
	t.waiters.Broadcast()
	t.fireDone()
}

// fireDone runs the OnDone callbacks once, in registration order, and drops
// them.
func (t *Transfer) fireDone() {
	for _, fn := range t.onDone {
		fn()
	}
	t.onDone, t.doneBuf[0] = nil, nil
}
