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
// central storage when they did not.
//
// Every tier reuses the fluid-flow rate model of the storage package: the
// node-resident tiers (RAM, local disk) are a storage.System whose per-client
// cap is the fabric link or disk bandwidth, the burst tier is a storage.System
// with the buffer appliance's aggregate and per-client rates, and the cold
// tier is the cluster's shared central System itself, so drains are visible
// in its schedules.
package tier

import (
	"errors"
	"fmt"

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

// stacks lists each mode's tiers fastest-first. Every stack ends at Central.
var stacks = map[Mode][]Level{
	"":            {Central},
	ModeCentral:   {Central},
	ModeBurst:     {Burst, Central},
	ModeRAM:       {RAM, Central},
	ModeHierarchy: {RAM, Burst, Central},
	ModeLocal:     {Local, Central},
}

// Valid reports whether the mode is one of the known values (including the
// zero value, central).
func (m Mode) Valid() bool { return stacks[m] != nil }

// Tiered reports whether the mode stacks more than one level, so that
// writes acknowledge above central storage and drain down to it.
func (m Mode) Tiered() bool { return len(stacks[m]) > 1 }

// HasRAM reports whether the mode includes the RAM replication tier.
func (m Mode) HasRAM() bool { return m == ModeRAM || m == ModeHierarchy }

// HasBurst reports whether the mode includes the burst-buffer tier.
func (m Mode) HasBurst() bool { return m == ModeBurst || m == ModeHierarchy }

// Levels returns the mode's tiers fastest-first; an unknown mode has only
// the cold tier. Callers must not modify the result.
func (m Mode) Levels() []Level {
	if s := stacks[m]; s != nil {
		return s
	}
	return stacks[ModeCentral]
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
		return fmt.Errorf("tier: unknown storage mode %q (want central, burst, ram, hierarchy, or local)", c.Mode)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("tier: replicas must be >= 0, got %d", c.Replicas)
	}
	if c.Mode.HasRAM() && c.ReplicaCount() >= n {
		return fmt.Errorf("tier: %d RAM replicas need at least %d distinct partner nodes, job has only %d ranks",
			c.ReplicaCount(), c.ReplicaCount()+1, n)
	}
	return nil
}

// Tier is one level of the checkpoint storage hierarchy.
type Tier interface {
	// Level names the tier; it doubles as the residency-tier string in the
	// blcr ledger.
	Level() Level
	// StartWrite begins storing (epoch, rank)'s image of size bytes and
	// returns the in-flight transfer. A non-nil error means the tier
	// declined synchronously — an error wrapping ErrFull when nothing
	// evictable remains. Event context.
	StartWrite(epoch, rank int, size int64) (*storage.Transfer, error)
	// landed settles a transfer StartWrite returned, once it has ended: on
	// success (ok) the tier records residency, on failure it releases what
	// it reserved. The hierarchy calls it before anything else learns the
	// write ended.
	landed(epoch, rank int, size int64, ok bool)
	// readTime estimates one image's restart read-back from this tier: one
	// reader's share of a shared tier, one link or disk of a node-resident
	// one (Hierarchy.ReadBack sums the first and takes the max of the second).
	readTime(size int64) sim.Time
}
