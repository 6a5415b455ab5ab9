package tier

import (
	"fmt"

	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// burstTier is the shared burst-buffer appliance: bounded capacity, its own
// fair-shared fluid-flow rate model, and eviction of images that have
// already drained to central storage. Capacity is reserved when a write is
// accepted (so concurrent writers cannot oversubscribe the buffer) and
// released if the transfer aborts or the image is later evicted.
//
// Eviction is oldest-first over resident images, but only images with a
// central copy are evictable — the buffer never throws away the last
// copy of a checkpoint. When nothing evictable remains, StartWrite declines
// with ErrFull and the hierarchy spills the write through to central.
type burstTier struct {
	h        *Hierarchy
	sys      *storage.System
	used     int64
	resident []burstEntry // arrival order: eviction scans oldest-first
}

// burstEntry is one image resident in the buffer.
type burstEntry struct {
	epoch, rank int
	size        int64
}

func newBurstTier(h *Hierarchy, k *sim.Kernel) (*burstTier, error) {
	sys, err := storage.New(k, storage.Config{
		AggregateBW: burstAggBW,
		ClientBW:    burstClientBW,
		OpenLatency: burstOpenLatency,
	})
	if err != nil {
		return nil, fmt.Errorf("tier: burst tier: %w", err)
	}
	return &burstTier{h: h, sys: sys}, nil
}

func (t *burstTier) Level() Level { return Burst }

// readTime mirrors the central service's restart estimate against the
// buffer's aggregate rate: concurrent readers share the appliance.
func (t *burstTier) readTime(size int64) sim.Time {
	return sim.Seconds(float64(size) / t.sys.Config().AggregateBW)
}

func (t *burstTier) StartWrite(epoch, rank int, size int64) (*storage.Transfer, error) {
	for t.used+size > burstCapacity {
		if !t.evictOne() {
			return nil, fmt.Errorf("tier: burst buffer holds %d of %d bytes, nothing evictable: %w",
				t.used, burstCapacity, ErrFull)
		}
	}
	t.used += size
	tr, err := t.sys.Start(size)
	if err != nil {
		t.used -= size
		return nil, err
	}
	return tr, nil
}

func (t *burstTier) landed(epoch, rank int, size int64, ok bool) {
	if !ok {
		t.used -= size
		return
	}
	t.h.arch.AddReplica(epoch, rank, string(Burst), -1)
	t.resident = append(t.resident, burstEntry{epoch: epoch, rank: rank, size: size})
}

// evictOne drops the oldest resident image that has a central copy and
// reports whether one was found.
func (t *burstTier) evictOne() bool {
	for i := range t.resident {
		e := t.resident[i]
		if t.h.arch.TierCopies(e.epoch, e.rank, string(Central)) == 0 {
			continue
		}
		t.h.arch.DropTierCopies(e.epoch, e.rank, string(Burst))
		t.used -= e.size
		t.resident = append(t.resident[:i], t.resident[i+1:]...)
		t.h.noteEvict(e.epoch, e.rank, e.size)
		return true
	}
	return false
}
