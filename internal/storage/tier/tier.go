// Package tier composes the central storage model into a multi-tier
// checkpoint hierarchy: a partner-replicated RAM tier (ReStore-style k-way
// in-memory replication over the InfiniBand fabric), the node-local disk of
// the Section 2.1 staging alternative, a shared burst-buffer tier with bounded
// capacity and eviction, and the paper's central PVFS2-like service as the
// cold tier.
//
// A Hierarchy acknowledges a checkpoint write at the fastest tier that
// accepts it — commit gates on that tier's replication degree, not on central
// completion — and then drains the image asynchronously downward as
// background kernel events whose transfers compete for bandwidth with
// foreground checkpoint traffic. On restart the blcr residency ledger is
// searched fastest-first, so recovery reads come from RAM partner replicas
// when they survived the failure and fall through to the burst buffer and
// central storage when they did not. Every tier is a storage.System of the
// storage package's fluid-flow rate model.
package tier

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// ErrFull is the sentinel wrapped by a capacity rejection: the burst tier
// declined a write because nothing evictable remains. The hierarchy reacts
// by spilling the write through to the next tier down.
var ErrFull = errors.New("tier at capacity")

// Level names one tier of the hierarchy. The values are the residency-tier
// strings recorded in the blcr ledger.
type Level string

const (
	// RAM is the partner-replicated node-memory tier.
	RAM Level = "ram"
	// Local is the rank's own node-local disk: one unreplicated copy.
	Local Level = "local"
	// Burst is the shared burst-buffer tier.
	Burst Level = "burst"
	// Central is the paper's central PVFS2-like service.
	Central Level = "central"
)

// Mode selects which tiers a cluster's checkpoint path uses. The zero value
// is ModeCentral.
type Mode string

const (
	// ModeCentral is the one-level stack [central]: every write goes
	// straight to central storage (the default).
	ModeCentral Mode = "central"
	// ModeBurst acknowledges at the burst buffer and drains to central.
	ModeBurst Mode = "burst"
	// ModeRAM acknowledges at RAM partner replicas and drains to central.
	ModeRAM Mode = "ram"
	// ModeHierarchy uses all three tiers: RAM → burst → central.
	ModeHierarchy Mode = "hierarchy"
	// ModeLocal is the Section 2.1 staging alternative: local disk → central.
	// The only copy is node-resident until the drain lands, so a node loss
	// inside that window falls back to the previous epoch.
	ModeLocal Mode = "local"
)

// stacks is the one list of modes: each mode's tiers fastest-first, in the
// order messages name the modes. Every stack ends at Central.
var stacks = []struct {
	mode   Mode
	levels []Level
}{
	{ModeCentral, []Level{Central}},
	{ModeBurst, []Level{Burst, Central}},
	{ModeRAM, []Level{RAM, Central}},
	{ModeHierarchy, []Level{RAM, Burst, Central}},
	{ModeLocal, []Level{Local, Central}},
}

// stack returns the mode's tiers, or nil for an unknown mode; the zero value
// is ModeCentral.
func (m Mode) stack() []Level {
	if m == "" {
		m = ModeCentral
	}
	for _, s := range stacks {
		if s.mode == m {
			return s.levels
		}
	}
	return nil
}

// Valid reports whether the mode is one of the known values (including the
// zero value, central).
func (m Mode) Valid() bool { return m.stack() != nil }

// Tiered reports whether the mode stacks more than one level, so that
// writes acknowledge above central storage and drain down to it.
func (m Mode) Tiered() bool { return len(m.stack()) > 1 }

// Has reports whether the mode's stack includes level; an unknown mode has
// none.
func (m Mode) Has(level Level) bool { return slices.Contains(m.stack(), level) }

// Levels returns the mode's tiers fastest-first; an unknown mode has only
// the cold tier. Callers must not modify the result.
func (m Mode) Levels() []Level {
	if s := m.stack(); s != nil {
		return s
	}
	return stacks[0].levels
}

// ModeNames lists the known modes in table order, comma-separated, with conj
// (such as "or") before the last one unless conj is empty.
func ModeNames(conj string) string {
	names := make([]string, len(stacks))
	for i, s := range stacks {
		names[i] = string(s.mode)
	}
	if conj != "" {
		names[len(names)-1] = conj + " " + names[len(names)-1]
	}
	return strings.Join(names, ", ")
}

// Config parameterizes a hierarchy. All fields are scalars so the struct
// stays a stable part of harness memo keys. Zero values select the
// documented defaults.
type Config struct {
	// Mode selects the tier stack; the zero value is central.
	Mode Mode
	// Replicas is k, the number of partner copies each rank's snapshot gets
	// in the RAM tier beyond its own (placement ring: ranks r+1 … r+k mod
	// N). The tier survives any k concurrent node losses. 0 means 2.
	Replicas int
}

const (
	defaultReplicas = 2

	// The burst buffer: its capacity in bytes, the appliance's total
	// throughput and one writer's cap, in bytes/second.
	burstCapacity = 2 << 30
	burstAggBW    = float64(1 << 30)
	burstClientBW = float64(512 * storage.MB)

	// localDiskBW is one node's own disk, write and read-back: 2007-era SATA.
	localDiskBW = float64(60 * storage.MB)

	// burstOpenLatency is the burst buffer's per-transfer setup cost: faster
	// than central's metadata round trip, not free.
	burstOpenLatency = 500 * sim.Microsecond

	// Drain retries: a failed background drain (central outage window) backs
	// off and retries a bounded number of times. Unlike a foreground write
	// failure it never aborts the cycle — the epoch is already durable at a
	// higher tier — so after the budget is spent the drain is abandoned and
	// counted.
	drainRetryBase = 200 * sim.Millisecond
	drainRetryCap  = 3200 * sim.Millisecond
	maxDrainTries  = 6
)

// ReplicaCount returns k with defaults applied.
func (c Config) ReplicaCount() int {
	if c.Replicas <= 0 {
		return defaultReplicas
	}
	return c.Replicas
}

// Validate checks the configuration against a job of n ranks.
func (c Config) Validate(n int) error {
	if !c.Mode.Valid() {
		return fmt.Errorf("tier: unknown storage mode %q (want %s)", c.Mode, ModeNames("or"))
	}
	if c.Replicas < 0 {
		return fmt.Errorf("tier: replicas must be >= 0, got %d", c.Replicas)
	}
	if c.Mode.Has(RAM) && c.ReplicaCount() >= n {
		return fmt.Errorf("tier: %d RAM replicas need at least %d distinct partner nodes, job has only %d ranks",
			c.ReplicaCount(), c.ReplicaCount()+1, n)
	}
	return nil
}

// tier is one level of the hierarchy. The levels differ only in data — a
// rate model, the copies one write places, whether those copies live on
// compute nodes, a capacity — so newTier builds every level and the
// Hierarchy reads these fields, never a level's type:
//
//   - Central, the cold tier, is the cluster's shared storage System itself,
//     not a copy, so drains share one fluid-flow schedule with foreground
//     writes and restart reads: the background-drain interference the
//     hierarchy exists to model. Alone, it is the one-level stack.
//   - RAM is partner-replicated node memory: a rank's image stays in its own
//     memory and goes to k partners on a placement ring (ranks r+1 … r+k mod
//     N), so any k concurrent node losses leave a copy. The k copies leave
//     through the writer's one fabric link, one transfer of k×size bytes;
//     ranks replicate in parallel on disjoint links (AggregateBW = N×link).
//   - Local is the Section 2.1 staging disk: one unreplicated copy on the
//     rank's own disk, every node writing in parallel at the disk's rate.
//   - Burst is the shared burst-buffer appliance, with its own fair-shared
//     rate model and bounded capacity.
//
// A node-resident level is double-buffered: once epoch e's copy set is
// durable, the rank's older copies there are released (Hierarchy.landed). A
// bounded level reserves capacity as it accepts a write, so concurrent
// writers cannot oversubscribe it, and returns it when the write fails or
// the image is evicted (Hierarchy.startWrite).
type tier struct {
	level    Level
	sys      *storage.System
	copies   int      // copies one write places: k+1 for RAM, 1 otherwise
	wire     int      // image sizes one write moves
	node     bool     // copies live on compute nodes and vanish with them
	capacity int64    // bytes; 0 is unbounded
	used     int64    // bytes reserved at a bounded level
	resident []stored // a bounded level's images, in arrival order

	// The level's counter names and the label of the drain into it
	// ("<level above>-><level>"), built with a tiered stack so no write,
	// drain or recovery concatenates a string. A one-level stack counts
	// and labels nothing (Hierarchy.tiered) and leaves them empty.
	writes, recovers, drains, drainIn string
}

// stored is one image resident at a bounded level.
type stored struct {
	epoch, rank int
	size        int64
}

// newTier builds level for an n-rank job whose RAM level keeps replicas
// partner copies; central is the cluster's shared System and linkBW the
// fabric link bandwidth.
func newTier(k *sim.Kernel, level Level, n, replicas int, central *storage.System, linkBW float64) (tier, error) {
	t := tier{level: level, sys: central, copies: 1, wire: 1}
	var cfg storage.Config
	switch level {
	case Central:
		return t, nil
	case RAM:
		t.copies, t.wire, t.node = replicas+1, replicas, true
		cfg = storage.Config{AggregateBW: linkBW * float64(n), ClientBW: linkBW}
	case Local:
		t.node = true
		cfg = storage.Config{AggregateBW: localDiskBW * float64(n), ClientBW: localDiskBW}
	case Burst:
		t.capacity = burstCapacity
		cfg = storage.Config{AggregateBW: burstAggBW, ClientBW: burstClientBW, OpenLatency: burstOpenLatency}
	}
	sys, err := storage.New(k, cfg)
	if err != nil {
		return tier{}, fmt.Errorf("tier: %s tier: %w", level, err)
	}
	t.sys = sys
	return t, nil
}

// readTime estimates one image's restart read-back from this level: one link
// hop from the nearest surviving replica or one read of the node's own disk
// for a node-resident level, whose concurrent recoveries use distinct links
// and disks; one reader's share of the aggregate rate for a shared one.
// Hierarchy.ReadBack takes the max of the first and sums the second.
func (t *tier) readTime(size int64) sim.Time {
	bw := t.sys.Config().AggregateBW
	if t.node {
		bw = t.sys.Config().ClientBW
	}
	return sim.Seconds(float64(size) / bw)
}
