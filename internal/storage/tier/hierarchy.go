package tier

import (
	"errors"
	"fmt"
	"slices"

	"gbcr/internal/blcr"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// Hierarchy composes the mode's tiers fastest-first and owns the movement of
// checkpoint images between them:
//
//   - a write is acknowledged at the first tier that accepts it (capacity
//     rejections spill through to the next tier down), so commit latency is
//     the ack tier's latency, not central storage's;
//   - once acknowledged, the image drains asynchronously tier by tier until
//     it reaches central storage, as background kernel events whose
//     transfers share bandwidth with foreground traffic;
//   - restart reads come from the fastest tier that still holds a copy,
//     resolved through the blcr residency ledger and priced by ReadBack; a
//     lost node takes its node-resident copies with it
//     (blcr.Store.DropNodeReplicas).
//
// ModeCentral is the one-level stack [central]: writes acknowledge at central
// storage and nothing drains, but the ledger records every copy all the same,
// so commit checks and restarts have one path for every mode. A one-level
// stack emits no tier-layer events or counters (tiered).
//
// All methods run in kernel context, like the storage package they build on.
type Hierarchy struct {
	k     *sim.Kernel
	bus   *obs.Bus
	arch  *blcr.Store
	tiers []tier // fastest-first, the last one cold
	n     int

	cold []coldMark // indexed by epoch: progress toward the cold tier
}

// coldMark counts the ranks whose image of one epoch has reached the cold
// tier, and when the latest of them did.
type coldMark struct {
	ranks int
	at    sim.Time
}

// NewHierarchy builds the tier stack for an n-rank job. central is the
// cluster's shared storage System — the cold tier writes into it directly,
// so drains compete with foreground transfers. linkBW is the fabric link
// bandwidth, the default RAM replication rate. The hierarchy must be bound
// to a snapshot archive (Bind) before it accepts writes.
func NewHierarchy(k *sim.Kernel, cfg Config, n int, central *storage.System, linkBW float64) (*Hierarchy, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	if central == nil {
		return nil, fmt.Errorf("tier: nil central storage system")
	}
	levels := cfg.Mode.Levels()
	h := &Hierarchy{k: k, n: n, tiers: make([]tier, len(levels))}
	for i, level := range levels {
		t, err := newTier(k, level, n, cfg.ReplicaCount(), central, linkBW)
		if err != nil {
			return nil, err
		}
		if len(levels) > 1 {
			name := string(level)
			t.writes, t.recovers, t.drains = "tier_writes_"+name, "tier_recover_"+name, "tier_drains_"+name
			if i > 0 {
				t.drainIn = string(levels[i-1]) + "->" + name
			}
		}
		h.tiers[i] = t
	}
	return h, nil
}

// Bind attaches the snapshot archive whose residency ledger records every
// copy the hierarchy places. Writes before Bind are rejected.
func (h *Hierarchy) Bind(arch *blcr.Store) { h.arch = arch }

// SetObs attaches an observability bus (nil detaches).
func (h *Hierarchy) SetObs(b *obs.Bus) { h.bus = b }

// tiered reports whether the stack has more than one level. Only then does
// the hierarchy report its own activity — tier-write and tier-recover events
// and their counters — so a one-level stack's trace and metrics are those of
// its central writes alone.
func (h *Hierarchy) tiered() bool { return len(h.tiers) > 1 }

// BurstSystem returns the burst tier's rate model for fault injection
// (availability windows), or nil when the mode has no burst tier.
func (h *Hierarchy) BurstSystem() *storage.System {
	for _, t := range h.tiers {
		if t.level == Burst {
			return t.sys
		}
	}
	return nil
}

// StartWrite begins storing (epoch, rank)'s image and returns the
// acknowledgement transfer: when it completes without error the image is
// durable at the ack tier (for RAM, the full copy set is placed) and the
// background drain chain is scheduled. Capacity rejections spill to the next
// tier down; an availability failure of the ack tier surfaces through the
// transfer's Err, feeding the caller's abort-and-retry path. Event context.
func (h *Hierarchy) StartWrite(epoch, rank int, size int64) (*storage.Transfer, error) {
	if h.arch == nil {
		return nil, fmt.Errorf("tier: write before Bind")
	}
	for i := range h.tiers {
		tr, err := h.startWrite(&h.tiers[i], size)
		if err != nil {
			if errors.Is(err, ErrFull) && i+1 < len(h.tiers) {
				h.noteSpill(h.tiers[i].level, h.tiers[i+1].level, epoch, rank, size)
				continue
			}
			return nil, err
		}
		// One callback a write: the level settles the transfer first, then
		// the hierarchy acknowledges it. Capturing int32s keeps the closure
		// in the 48-byte size class, where ints would make it 64.
		e, r, idx := int32(epoch), int32(rank), int32(i)
		tr.OnDone(func() {
			ok := tr.Err() == nil
			h.landed(int(idx), int(e), int(r), size, ok)
			if ok {
				h.ack(int(idx), int(e), int(r), size)
			}
		})
		return tr, nil
	}
	// Unreachable: the central tier never reports ErrFull.
	return nil, fmt.Errorf("tier: no tier accepted the write for epoch %d rank %d", epoch, rank)
}

// ack runs when the image is durable at tier idx: it announces the
// acknowledgement and schedules the drain toward the cold tier.
func (h *Hierarchy) ack(idx, epoch, rank int, size int64) {
	if t := &h.tiers[idx]; h.tiered() {
		h.bus.Metrics().Counter(obs.LayerStorage, t.writes).Inc()
		h.bus.Emit(obs.Event{At: h.k.Now(), Rank: rank, Layer: obs.LayerStorage,
			Type: obs.Instant, What: obs.KindTierWrite, Detail: string(t.level), Arg: size})
	}
	h.drainNext(idx, epoch, rank, size, 0)
}

// ReadBack prices a restart's read-back of snaps, one image a rank (nil: the
// rank restarts from scratch), at instant at of the caller's clock. Each rank
// reads from the fastest level that still holds a copy of its epoch, priced
// by that tier's own estimate: reads from a shared tier queue at its
// aggregate rate and add up, reads from a node-resident tier ride disjoint
// links and disks and only the slowest counts. It returns the total and each
// rank's level ("" for a nil snapshot). A tiered stack reports every read as
// a tier-recover event and counter; a one-level stack reports nothing.
func (h *Hierarchy) ReadBack(at sim.Time, snaps []*blcr.Snapshot) (sim.Time, []Level, error) {
	if h.arch == nil {
		return 0, nil, fmt.Errorf("tier: read-back before Bind")
	}
	levels := make([]Level, len(snaps))
	var shared, node sim.Time
	for rank, s := range snaps {
		if s == nil {
			continue
		}
		i := 0
		for i < len(h.tiers) && h.arch.TierCopies(s.Epoch, rank, string(h.tiers[i].level)) == 0 {
			i++
		}
		if i == len(h.tiers) {
			return 0, nil, fmt.Errorf("tier: restart line holds rank %d's epoch %d, which has no copy at any tier", rank, s.Epoch)
		}
		t, size := &h.tiers[i], s.Size()
		if t.node {
			node = max(node, t.readTime(size))
		} else {
			shared += t.readTime(size)
		}
		levels[rank] = t.level
		if h.tiered() {
			h.bus.Emit(obs.Event{At: at, Rank: rank, Layer: obs.LayerStorage,
				Type: obs.Instant, What: obs.KindTierRecover, Detail: string(levels[rank]), Arg: size})
			h.bus.Metrics().Counter(obs.LayerStorage, t.recovers).Inc()
		}
	}
	return shared + node, levels, nil
}

// drainNext moves (epoch, rank)'s image from tier from to the next tier
// down, retrying transient failures with exponential backoff and spilling
// past full tiers. It reschedules itself until the image reaches the cold
// tier.
func (h *Hierarchy) drainNext(from, epoch, rank int, size int64, tries int) {
	next := from + 1
	if next >= len(h.tiers) {
		return
	}
	t := &h.tiers[next]
	tr, err := h.startWrite(t, size)
	if err != nil {
		if errors.Is(err, ErrFull) && next+1 < len(h.tiers) {
			h.noteSpill(t.level, h.tiers[next+1].level, epoch, rank, size)
			h.drainNext(next, epoch, rank, size, 0)
			return
		}
		h.retryDrain(from, epoch, rank, size, tries, err)
		return
	}
	h.bus.Emit(obs.Event{At: h.k.Now(), Rank: rank, Layer: obs.LayerStorage,
		Type: obs.Begin, What: obs.KindTierDrain, Detail: t.drainIn, Arg: size})
	tr.OnDone(func() {
		h.landed(next, epoch, rank, size, tr.Err() == nil)
		h.bus.Emit(obs.Event{At: h.k.Now(), Rank: rank, Layer: obs.LayerStorage,
			Type: obs.End, What: obs.KindTierDrain, Detail: t.drainIn, Arg: size})
		if err := tr.Err(); err != nil {
			h.retryDrain(from, epoch, rank, size, tries, err)
			return
		}
		h.bus.Metrics().Counter(obs.LayerStorage, t.drains).Inc()
		h.bus.Metrics().Counter(obs.LayerStorage, "tier_drain_bytes").Add(size)
		h.drainNext(next, epoch, rank, size, 0)
	})
}

// retryDrain backs off and re-attempts a failed drain, or abandons it once
// the budget is spent. Abandonment is not a cycle failure — the image is
// durable at a higher tier — but it is counted and visible.
func (h *Hierarchy) retryDrain(from, epoch, rank int, size int64, tries int, cause error) {
	tries++
	if tries >= maxDrainTries {
		h.bus.Metrics().Counter(obs.LayerStorage, "tier_drain_failures").Inc()
		h.bus.Emit(obs.Event{At: h.k.Now(), Rank: rank, Layer: obs.LayerStorage,
			Type: obs.Instant, What: obs.KindTierDrain,
			Detail: fmt.Sprintf("abandoned after %d tries: %v", tries, cause), Arg: size})
		return
	}
	delay := sim.Backoff(drainRetryBase, tries-1, drainRetryCap)
	h.k.After(delay, func() { h.drainNext(from, epoch, rank, size, tries) })
}

// startWrite begins storing an image of size bytes at level t and returns the
// in-flight transfer. A bounded level first evicts its oldest images that
// have a central copy to make room, and declines with an error wrapping
// ErrFull when none is left.
func (h *Hierarchy) startWrite(t *tier, size int64) (*storage.Transfer, error) {
	for t.capacity > 0 && t.used+size > t.capacity {
		i := slices.IndexFunc(t.resident, func(e stored) bool {
			return h.arch.TierCopies(e.epoch, e.rank, string(Central)) > 0
		})
		if i < 0 {
			return nil, fmt.Errorf("tier: %s holds %d of %d bytes, nothing evictable: %w",
				t.level, t.used, t.capacity, ErrFull)
		}
		e := t.resident[i]
		h.arch.DropTierCopies(e.epoch, e.rank, string(t.level))
		t.used -= e.size
		t.resident = slices.Delete(t.resident, i, i+1)
		h.bus.Metrics().Counter(obs.LayerStorage, "tier_evictions").Inc()
		h.bus.Emit(obs.Event{At: h.k.Now(), Rank: e.rank, Layer: obs.LayerStorage,
			Type: obs.Instant, What: obs.KindTierEvict,
			Detail: fmt.Sprintf("epoch %d drained, releasing buffer space", e.epoch), Arg: e.size})
	}
	tr, err := t.sys.Start(int64(t.wire) * size)
	if err != nil {
		return nil, err
	}
	if t.capacity > 0 {
		t.used += size
	}
	return tr, nil
}

// landed settles a transfer startWrite returned for level i, once it has
// ended and before anything else learns so: on success (ok) it records the
// copies and on failure releases the reservation. A node-resident level
// places its copies on the ring and releases the rank's older epochs there;
// a first arrival at the last level counts toward the epoch going cold.
func (h *Hierarchy) landed(i, epoch, rank int, size int64, ok bool) {
	t, level := &h.tiers[i], string(h.tiers[i].level)
	switch {
	case !ok:
		if t.capacity > 0 {
			t.used -= size
		}
		return
	case t.node:
		for c := 0; c < t.copies; c++ {
			h.arch.AddReplica(epoch, rank, level, (rank+c)%h.n)
		}
		// Double-buffer release: the freshly durable image supersedes the
		// rank's older copies at this level.
		for e := epoch - 1; e >= 1; e-- {
			h.arch.DropTierCopies(e, rank, level)
		}
		return
	case i == len(h.tiers)-1 && h.arch.TierCopies(epoch, rank, level) == 0:
		h.noteCold(epoch)
	}
	h.arch.AddReplica(epoch, rank, level, -1)
	if t.capacity > 0 {
		t.resident = append(t.resident, stored{epoch: epoch, rank: rank, size: size})
	}
}

// noteCold records that one more rank's image of epoch reached the cold tier
// (on its first arrival there).
func (h *Hierarchy) noteCold(epoch int) {
	if epoch >= len(h.cold) {
		h.cold = append(h.cold, make([]coldMark, epoch+1-len(h.cold))...)
	}
	if c := &h.cold[epoch]; c.ranks < h.n {
		c.ranks++
		c.at = h.k.Now()
	}
}

// ColdAt returns the instant the last rank's image of epoch reached the cold
// tier — from then on no node loss can cost the epoch — or 0 while some
// rank's drain is still in flight (or was abandoned).
func (h *Hierarchy) ColdAt(epoch int) sim.Time {
	if epoch < len(h.cold) && h.cold[epoch].ranks == h.n {
		return h.cold[epoch].at
	}
	return 0
}

// noteSpill records a capacity fall-through.
func (h *Hierarchy) noteSpill(from, to Level, epoch, rank int, size int64) {
	h.bus.Metrics().Counter(obs.LayerStorage, "tier_spills").Inc()
	h.bus.Emit(obs.Event{At: h.k.Now(), Rank: rank, Layer: obs.LayerStorage,
		Type: obs.Instant, What: obs.KindTierSpill,
		Detail: fmt.Sprintf("%s full, writing through to %s (epoch %d)", from, to, epoch), Arg: size})
}

// CheckCommit verifies an epoch's replication degree before the coordinator
// commits it: every rank must hold a full copy set at some tier — k partner
// replicas plus the self copy for RAM, one copy for the local disk and the
// shared tiers.
// Commit never waits for the central drain; this is the gate that replaces
// central completion.
func (h *Hierarchy) CheckCommit(epoch int) error {
	if h.arch == nil {
		return fmt.Errorf("tier: commit check before Bind")
	}
	for rank := 0; rank < h.n; rank++ {
		ok := false
		for _, t := range h.tiers {
			if h.arch.TierCopies(epoch, rank, string(t.level)) >= t.copies {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("tier: epoch %d rank %d lacks a full copy set at any tier", epoch, rank)
		}
	}
	return nil
}
