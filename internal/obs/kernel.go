package obs

import (
	"strconv"
	"strings"

	"gbcr/internal/sim"
)

// kernelObserver adapts sim.Observer to the event spine: process spawns and
// completions become instants, park/unpark become a duration span, so every
// rank's blocked intervals are visible as "park" spans on its track.
//
// The observer sits on the kernel's scheduling hot path, so the counters it
// increments are resolved through the registry once and cached — lazily, on
// first use, preserving the invariant that a counter appears in snapshots
// only after the activity it counts has happened.
type kernelObserver struct {
	bus    *Bus
	spawns *Counter
	parks  *Counter
}

// ObserveKernel installs a scheduling observer on k that emits kernel-layer
// events into bus and counts scheduling activity in its metrics registry. A
// nil bus uninstalls observation.
func ObserveKernel(k *sim.Kernel, bus *Bus) {
	if bus == nil {
		k.SetObserver(nil)
		return
	}
	k.SetObserver(&kernelObserver{bus: bus})
}

// procRank recovers the world rank from the MPI layer's "rank<N>" process
// naming; any other process reports as system-wide activity (-1).
func procRank(name string) int {
	if rest, ok := strings.CutPrefix(name, "rank"); ok {
		if r, err := strconv.Atoi(rest); err == nil && r >= 0 {
			return r
		}
	}
	return -1
}

func (o *kernelObserver) ProcSpawned(now sim.Time, name string) {
	if o.spawns == nil {
		o.spawns = o.bus.Metrics().Counter(LayerKernel, "procs_spawned")
	}
	o.spawns.Inc()
	o.bus.Emit(Event{At: now, Rank: procRank(name), Layer: LayerKernel, Type: Instant,
		What: KindSpawn, Detail: name})
}

func (o *kernelObserver) ProcParked(now sim.Time, name, reason string) {
	if o.parks == nil {
		o.parks = o.bus.Metrics().Counter(LayerKernel, "parks")
	}
	o.parks.Inc()
	o.bus.Emit(Event{At: now, Rank: procRank(name), Layer: LayerKernel, Type: Begin,
		What: KindPark, Detail: reason})
}

func (o *kernelObserver) ProcUnparked(now sim.Time, name string) {
	o.bus.Emit(Event{At: now, Rank: procRank(name), Layer: LayerKernel, Type: End,
		What: KindPark})
}

func (o *kernelObserver) ProcDone(now sim.Time, name string) {
	o.bus.Emit(Event{At: now, Rank: procRank(name), Layer: LayerKernel, Type: Instant,
		What: KindDone, Detail: name})
}
