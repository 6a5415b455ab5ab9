// Package obs is the unified observability layer for the simulation stack:
// one structured, deterministic event spine running from the sim kernel up
// through storage, the IB fabric, the MPI library, and the checkpoint
// protocol, plus a sim-time metrics registry.
//
// Every layer emits typed Events into a *Bus; pluggable Sinks consume them:
// MemorySink (in-memory log + text timeline), JSONLSink (JSON Lines), and
// ChromeSink (Chrome trace-event format, viewable in chrome://tracing or
// Perfetto, with one track per rank and C/R phases as duration spans).
//
// An emit site passes values, not text: a per-message or per-rank event
// carries its peer, tag, size or duration in Event fields, and the one
// per-kind formatter, Event.Text, renders the detail string where a sink
// writes one. So attaching a sink that never reads text — a counter, a
// checker — costs no formatting and no allocation on the message path.
//
// The disabled path is a single pointer check: a nil *Bus ignores Emit, and a
// nil *Counter / *Histogram ignores Add/Observe, so instrumented code needs
// no nil checks and costs ~nothing when observation is off. Because all
// emission happens in kernel order on the single simulation thread, the
// exported timelines are replay-identical for a given seed — the same
// determinism contract the simdeterminism analyzer enforces for results.
package obs

import (
	"fmt"

	"gbcr/internal/sim"
)

// Layer identifies which part of the stack emitted an event or owns a metric.
type Layer uint8

// Layers, bottom-up. LayerFault is the fault-injection subsystem
// (internal/fault): injected faults — rank crashes, storage outage windows,
// dropped connection-management packets, snapshot corruption — emit on it so
// every exported timeline shows what was done to the run alongside how the
// run reacted.
const (
	LayerKernel Layer = iota
	LayerStorage
	LayerIB
	LayerMPI
	LayerCR
	LayerFault
)

var layerNames = [...]string{"kernel", "storage", "ib", "mpi", "cr", "fault"}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "layer?"
}

// MarshalText renders the layer name for JSON exports.
func (l Layer) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses a layer name, so exported snapshots round-trip.
func (l *Layer) UnmarshalText(text []byte) error {
	for i, name := range layerNames {
		if string(text) == name {
			*l = Layer(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown layer %q", text)
}

// Type classifies an event: a point occurrence or one side of a duration
// span. Begin/End pairs on the same rank must nest like a stack; the Chrome
// exporter maps them to "B"/"E" duration events.
type Type uint8

// Event types.
const (
	Instant Type = iota
	Begin
	End
)

var typeNames = [...]string{"instant", "begin", "end"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "type?"
}

// MarshalText renders the type name for JSON exports.
func (t Type) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// Event is one timeline entry. Rank is the world rank of the emitting
// process, or -1 for system-wide activity (the coordinator, the storage
// service, the kernel itself). What is a stable, machine-matchable
// identifier; Arg is an optional numeric payload (bytes, peer id, client
// count) that every sink exports as is.
//
// The human context a sink prints is Text. A structured kind (see Text)
// carries it as values — Peer, the other rank of a message, and Val, one
// more integer such as a tag or an image size — so its emit site formats
// nothing and an in-process sink reads numbers; any other kind carries it
// as the optional string Detail.
type Event struct {
	At     sim.Time
	Rank   int
	Layer  Layer
	Type   Type
	What   Kind
	Peer   int32
	Detail string
	Arg    int64
	Val    int64
}

// Sink consumes events. Implementations must not re-enter the simulation;
// they are called synchronously from kernel context, in event order.
type Sink interface {
	Emit(e Event)
}

// Bus fans events out to its sinks and owns the run's metrics registry. The
// zero-sink case costs one length check per instrumentation site; a nil *Bus
// is fully disabled (a single pointer check) and has no registry.
type Bus struct {
	sinks   []Sink
	metrics *Metrics
}

// NewBus returns a Bus with a fresh metrics registry and the given sinks.
func NewBus(sinks ...Sink) *Bus {
	return &Bus{sinks: sinks, metrics: NewMetrics()}
}

// AddSink attaches another sink. Attach sinks before the simulation runs;
// events already emitted are not replayed.
func (b *Bus) AddSink(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.sinks = append(b.sinks, s)
}

// HasSinks reports whether any sink is attached.
func (b *Bus) HasSinks() bool { return b != nil && len(b.sinks) > 0 }

// Metrics returns the bus's registry, or nil on a nil bus (registry lookups
// on a nil registry return nil-safe no-op instruments).
func (b *Bus) Metrics() *Metrics {
	if b == nil {
		return nil
	}
	return b.metrics
}

// Emit delivers an event to every sink. Safe on a nil bus.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	for _, s := range b.sinks {
		s.Emit(e)
	}
}
