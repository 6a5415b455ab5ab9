package tier

import (
	"fmt"

	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// nodeTier is a node-resident tier: every copy lives on a compute node and
// vanishes with it. Two levels are built from it.
//
// RAM is partner-replicated node memory. Each rank's image is kept in its own
// memory and pushed to k partner nodes on a placement ring (ranks r+1 … r+k
// mod N), so any k concurrent node losses leave at least one copy.
// Replication is one fluid-flow transfer of k×size bytes: the copies leave
// through the writer's single fabric link, so egress serializes them, while
// different ranks replicate in parallel on disjoint links (AggregateBW =
// N×link).
//
// Local is the Section 2.1 staging disk: no partners, one size-byte write to
// the rank's own disk at the disk's rate, every node writing in parallel.
//
// Node storage is double-buffered: once epoch e's copy set is durable, epoch
// e-1's copies for that rank are released — the tier holds at most one
// committed image per rank plus the one in flight.
type nodeTier struct {
	h        *Hierarchy
	sys      *storage.System
	level    Level
	n        int
	partners int // copies beyond the rank's own node
	wire     int // image-sizes moved per write
	bw       float64
}

func newNodeTier(h *Hierarchy, k *sim.Kernel, n int, level Level, partners, wire int, bw float64) (*nodeTier, error) {
	sys, err := storage.New(k, storage.Config{
		AggregateBW: bw * float64(n),
		ClientBW:    bw,
	})
	if err != nil {
		return nil, fmt.Errorf("tier: %s tier: %w", level, err)
	}
	return &nodeTier{h: h, sys: sys, level: level, n: n, partners: partners, wire: wire, bw: bw}, nil
}

func (t *nodeTier) Level() Level { return t.level }

// readTime is one link hop from the nearest surviving replica, or one read of
// the node's own disk; concurrent recoveries use distinct links and disks.
func (t *nodeTier) readTime(size int64) sim.Time {
	return sim.Seconds(float64(size) / t.bw)
}

func (t *nodeTier) StartWrite(epoch, rank int, size int64) (*storage.Transfer, error) {
	return t.sys.Start(int64(t.wire) * size)
}

func (t *nodeTier) landed(epoch, rank int, size int64, ok bool) {
	if !ok {
		return
	}
	arch, level := t.h.arch, string(t.level)
	for i := 0; i <= t.partners; i++ {
		arch.AddReplica(epoch, rank, level, (rank+i)%t.n)
	}
	// Double-buffer release: the freshly durable image supersedes the
	// rank's older copies at this level.
	for e := epoch - 1; e >= 1; e-- {
		arch.DropTierCopies(e, rank, level)
	}
}
