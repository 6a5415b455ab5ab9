package fault

import (
	"fmt"
	"slices"

	"gbcr/internal/blcr"
	"gbcr/internal/cr"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/storage/tier"
)

// Target is the assembled cluster an Injector arms faults against. All
// components belong to one simulated run (one restart attempt); the injector
// itself outlives attempts so one-shot faults fire exactly once across the
// whole availability run.
type Target struct {
	K *sim.Kernel
	// Job is the application. A timed crash or node loss that lands after it
	// has finished finds nothing left to kill and does not fire.
	Job     *mpi.Job
	Storage *storage.System
	Fabric  *ib.Fabric
	Coord   *cr.Coordinator
	// Tiers is the cluster's checkpoint storage stack, never nil: under
	// central storage it is the one level [central]. BurstBufferOutage
	// faults require a burst tier and are rejected by runners when the stack
	// has none.
	Tiers *tier.Hierarchy
}

// Injector schedules a Scenario's faults against successive cluster
// instantiations. Faults are described on the availability runner's global
// wall clock (time summed across restart attempts); Arm translates them into
// local kernel events for one attempt via the offset. One-shot faults (rank
// crashes, snapshot corruption) and CMDrop packet budgets carry state across
// attempts: a crash consumed in attempt 1 does not fire again in attempt 2.
type Injector struct {
	scn   Scenario
	bus   *obs.Bus
	fired []bool // one-shot faults already delivered, by scenario index
	left  []int  // remaining CMDrop packet budget, by scenario index
}

// NewInjector builds an injector for one availability run. bus may be nil.
func NewInjector(scn Scenario, bus *obs.Bus) *Injector {
	in := &Injector{
		scn:   scn,
		bus:   bus,
		fired: make([]bool, len(scn.Faults)),
		left:  make([]int, len(scn.Faults)),
	}
	for i, f := range scn.Faults {
		if f.Kind == CMDrop {
			in.left[i] = f.Count
			if in.left[i] == 0 {
				in.left[i] = 1
			}
		}
	}
	return in
}

func (in *Injector) emit(at sim.Time, typ obs.Type, what obs.Kind, detail string, arg int64) {
	in.bus.Emit(obs.Event{At: at, Rank: -1, Layer: obs.LayerFault, Type: typ, What: what, Detail: detail, Arg: arg})
	if typ != obs.End {
		in.bus.Metrics().Counter(obs.LayerFault, "injected").Inc()
	}
}

// Arm installs the scenario's faults on one freshly assembled cluster.
// offset is the global wall time already consumed by earlier attempts, so a
// fault at global time T fires at local kernel time T-offset (or immediately
// if the attempt starts inside its window). Arm must be called before the
// attempt runs, while the kernel clock is at its starting point.
func (in *Injector) Arm(t Target, offset sim.Time) {
	var phaseCrashes []int
	var drops []int
	for i, f := range in.scn.Faults {
		switch f.Kind {
		case RankCrash, NodeMemoryLoss:
			if in.fired[i] {
				continue
			}
			if f.Phase != 0 {
				phaseCrashes = append(phaseCrashes, i)
				continue
			}
			in.armLoss(t, i, f, offset)
		case StorageOutage:
			in.armWindow(t, t.Storage, obs.KindOutage, f, offset)
		case CMDrop:
			if in.left[i] > 0 {
				drops = append(drops, i)
			}
		case SnapshotCorrupt:
			// Applied by OnEpochCommitted when the target epoch commits.
		case BurstBufferOutage:
			// Runners reject bboutage scenarios on stacks without a burst tier.
			in.armWindow(t, t.Tiers.BurstSystem(), obs.KindBBOutage, f, offset)
		}
	}
	if len(phaseCrashes) > 0 {
		in.armPhaseCrashes(t, phaseCrashes)
	}
	if len(drops) > 0 {
		in.armDrops(t, drops, offset)
	}
}

// armLoss schedules a timed crash or node loss: a fail-stop job loss at At.
// A node loss also destroys every node-resident checkpoint copy (RAM
// replicas, local-disk staging) held by Count consecutive nodes starting at
// the target rank, in the same kernel event as the crash, so the restart line
// is computed against the surviving copies only. Without a node-resident tier
// the drop is vacuous and the node loss is a plain crash.
func (in *Injector) armLoss(t Target, i int, f Fault, offset sim.Time) {
	// An instant that fell inside a previous attempt, which ended (to a
	// stochastic loss) before reaching it, is delivered at attempt start so
	// the fault still happens exactly once.
	t.K.After(max(f.At-offset, 0), func() {
		if t.Job.Finished() {
			return
		}
		in.fired[i] = true
		if f.Kind == NodeMemoryLoss {
			first, count := max(f.Rank, 0), max(f.Count, 1)
			lost := 0
			// Nodes past the job hold nothing; a count may name far more.
			for node := first; node < first+min(count, t.Job.Size()-first); node++ {
				lost += t.Coord.Snapshots().DropNodeReplicas(node)
			}
			in.emit(t.K.Now(), obs.Instant, obs.KindMemLoss,
				fmt.Sprintf("nodes %d..%d lost, %d node-resident copies destroyed", first, first+count-1, lost),
				int64(count))
		} else {
			in.emit(t.K.Now(), obs.Instant, obs.KindCrash, "timed", int64(f.Rank))
		}
		t.K.Fail(fmt.Errorf("%v at %v: %w", f, offset+t.K.Now(), ErrRankCrash))
	})
}

func (in *Injector) armPhaseCrashes(t Target, idx []int) {
	prev := t.Coord.PhaseHook
	t.Coord.PhaseHook = func(rank int, phase protocol.Phase, epoch int) {
		if prev != nil {
			prev(rank, phase, epoch)
		}
		for _, i := range idx {
			f := in.scn.Faults[i]
			if in.fired[i] || f.Phase != phase || f.Rank >= 0 && f.Rank != rank || f.Epoch > 0 && f.Epoch != epoch {
				continue
			}
			in.fired[i] = true
			in.emit(t.K.Now(), obs.Instant, obs.KindCrash, fmt.Sprintf("phase=%s epoch=%d", f.Phase, f.Epoch), int64(rank))
			t.K.Fail(fmt.Errorf("rank %d crashed in phase %q of epoch %d: %w",
				rank, phase, epoch, ErrRankCrash))
			return
		}
	}
}

// armWindow schedules an availability window on one storage system: the
// central service for an outage, the burst-buffer tier for a bboutage (kind
// names the window's events). A nil system means no window.
func (in *Injector) armWindow(t Target, sys *storage.System, kind obs.Kind, f Fault, offset sim.Time) {
	begin := f.At - offset
	end := f.At + f.Duration - offset
	if sys == nil || end <= 0 {
		return // no such tier, or the window lay entirely inside earlier attempts
	}
	if begin < 0 {
		begin = 0 // attempt starts mid-window
	}
	t.K.After(begin, func() {
		in.emit(t.K.Now(), obs.Begin, kind, fmt.Sprintf("factor=%g", f.Factor), int64(f.Factor*100))
		sys.SetAvailability(f.Factor)
	})
	t.K.After(end, func() {
		sys.SetAvailability(1)
		in.emit(t.K.Now(), obs.End, kind, "", 0)
	})
}

func (in *Injector) armDrops(t Target, idx []int, offset sim.Time) {
	t.Fabric.SetDropFilter(func(src, dst int, kind string) bool {
		for _, i := range idx {
			f := in.scn.Faults[i]
			if in.left[i] <= 0 || offset+t.K.Now() < f.At {
				continue
			}
			if !cmTypeMatches(f.CMType, kind) {
				continue
			}
			if f.Rank >= 0 && f.Rank != src {
				continue
			}
			in.left[i]--
			in.emit(t.K.Now(), obs.Instant, obs.KindCMDrop, kind, int64(dst))
			return true
		}
		return false
	})
}

// cmTypeMatches reports whether a wire packet kind falls in the spec's
// packet class (cmClasses), "" matching everything.
func cmTypeMatches(want, kind string) bool {
	return want == "" || slices.Contains(cmClasses[want], kind)
}

// OnEpochCommitted applies pending SnapshotCorrupt faults whose epoch has
// committed: the archive is damaged only after the commit accepted it,
// modelling bit rot found at restart time (corrupting earlier would merely
// make the commit itself fail, a different fault). Corruption waits for the
// snapshot to be a restart candidate — a committed epoch (blocking
// protocols) or a per-rank durable snapshot (uncoordinated protocol). wall stamps the emitted event with the
// runner's global clock.
func (in *Injector) OnEpochCommitted(store *blcr.Store, epoch int, wall sim.Time) {
	for i, f := range in.scn.Faults {
		if f.Kind != SnapshotCorrupt || in.fired[i] || f.Epoch > epoch ||
			!store.RankDurable(f.Epoch, f.Rank) {
			continue
		}
		if s := store.Get(f.Epoch, f.Rank); s != nil {
			s.Corrupt()
			in.fired[i] = true
			in.emit(wall, obs.Instant, obs.KindCorrupt, fmt.Sprintf("epoch=%d", f.Epoch), int64(f.Rank))
		}
	}
}
