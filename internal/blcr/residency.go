// Multi-tier residency ledger: which physical copies of each archived
// snapshot exist, at which storage tier, on which node, and whether each copy
// is still intact. The ledger is what makes the storage hierarchy's recovery
// semantics honest — a committed epoch is only a restart candidate while at
// least one intact copy of every rank's image survives somewhere, and restart
// reads come from the fastest tier that still holds one.
//
// Tier names are plain strings supplied by the caller (the storage/tier
// package uses "ram", "local", "burst", "central"); blcr itself is
// tier-agnostic. A snapshot with no residency ever recorded is in legacy
// single-service mode and is implicitly resident at central storage, so stores
// used without a hierarchy behave exactly as before.

package blcr

import "sort"

// copyKey identifies one tier's copy set of one snapshot.
type copyKey struct {
	epoch, rank int
	tier        string
}

// rankEpoch indexes per-snapshot residency summaries.
type rankEpoch struct {
	epoch, rank int
}

// replica is one physical copy: the node holding it (-1 for a shared service
// like the burst buffer or central storage) and whether it is still intact.
type replica struct {
	node   int
	intact bool
}

// residencyLedger tracks physical copies per (epoch, rank, tier).
type residencyLedger struct {
	copies map[copyKey][]replica
	// tracked marks snapshots that ever had residency recorded: those are in
	// tiered mode and must keep at least one intact copy to stay
	// recoverable. Entries are never cleared — losing every copy makes the
	// snapshot unrecoverable, not legacy.
	tracked map[rankEpoch]bool
	// intact counts intact copies across all tiers per snapshot, maintained
	// incrementally so recoverability checks are O(1).
	intact map[rankEpoch]int
}

func newResidencyLedger() residencyLedger {
	return residencyLedger{
		copies:  make(map[copyKey][]replica),
		tracked: make(map[rankEpoch]bool),
		intact:  make(map[rankEpoch]int),
	}
}

// AddReplica records that an intact copy of (epoch, rank)'s image now exists
// at the given tier on the given node (-1 for a shared service). Re-adding an
// existing intact copy is a no-op; re-adding a lost or corrupted copy
// restores it (a re-drain rewrote it).
func (st *Store) AddReplica(epoch, rank int, tier string, node int) {
	key := copyKey{epoch: epoch, rank: rank, tier: tier}
	set := st.res.copies[key]
	for i := range set {
		if set[i].node == node {
			if !set[i].intact {
				set[i].intact = true
				st.res.intact[rankEpoch{epoch, rank}]++
			}
			return
		}
	}
	set = append(set, replica{node: node, intact: true})
	// Keep the copy set sorted by node so every walk over it is
	// deterministic regardless of registration order.
	sort.Slice(set, func(i, j int) bool { return set[i].node < set[j].node })
	st.res.copies[key] = set
	st.res.tracked[rankEpoch{epoch, rank}] = true
	st.res.intact[rankEpoch{epoch, rank}]++
}

// DropReplica removes one copy (intact or not) and reports whether it
// existed.
func (st *Store) DropReplica(epoch, rank int, tier string, node int) bool {
	key := copyKey{epoch: epoch, rank: rank, tier: tier}
	set := st.res.copies[key]
	for i := range set {
		if set[i].node == node {
			if set[i].intact {
				st.res.intact[rankEpoch{epoch, rank}]--
			}
			st.res.copies[key] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

// CorruptReplica marks one copy as damaged in place (bit rot, torn drain). It
// reports whether an intact copy was found to corrupt.
func (st *Store) CorruptReplica(epoch, rank int, tier string, node int) bool {
	key := copyKey{epoch: epoch, rank: rank, tier: tier}
	set := st.res.copies[key]
	for i := range set {
		if set[i].node == node && set[i].intact {
			set[i].intact = false
			st.res.intact[rankEpoch{epoch, rank}]--
			return true
		}
	}
	return false
}

// DropTierCopies removes every copy of (epoch, rank) at one tier — an
// eviction or a RAM double-buffer release — and returns how many copies were
// dropped.
func (st *Store) DropTierCopies(epoch, rank int, tier string) int {
	key := copyKey{epoch: epoch, rank: rank, tier: tier}
	set := st.res.copies[key]
	if len(set) == 0 {
		return 0
	}
	for i := range set {
		if set[i].intact {
			st.res.intact[rankEpoch{epoch, rank}]--
		}
	}
	delete(st.res.copies, key)
	return len(set)
}

// DropNodeReplicas removes every copy held on one node, at every tier and
// across all archived snapshots — the residency side of a node loss, where
// the node's memory and disk contents vanish with it. Copies at shared
// services (node -1) are never on a compute node and survive. It returns how
// many copies were lost.
func (st *Store) DropNodeReplicas(node int) int {
	lost := 0
	//lint:allow-simdeterminism every copy set is visited once and the count is order-independent
	for key := range st.res.copies {
		if st.DropReplica(key.epoch, key.rank, key.tier, node) {
			lost++
		}
	}
	return lost
}

// TierIntact counts the intact copies of (epoch, rank) at one tier.
func (st *Store) TierIntact(epoch, rank int, tier string) int {
	set := st.res.copies[copyKey{epoch: epoch, rank: rank, tier: tier}]
	n := 0
	for i := range set {
		if set[i].intact {
			n++
		}
	}
	return n
}

// Tracked reports whether (epoch, rank) ever had tier residency recorded,
// i.e. whether it lives under a storage hierarchy rather than the legacy
// single central service.
func (st *Store) Tracked(epoch, rank int) bool {
	return st.res.tracked[rankEpoch{epoch, rank}]
}

// recoverable reports whether at least one intact copy of (epoch, rank)
// survives. Snapshots without residency tracking are implicitly resident at
// the central service and always recoverable (legacy behavior).
func (st *Store) recoverable(epoch, rank int) bool {
	key := rankEpoch{epoch, rank}
	if !st.res.tracked[key] {
		return true
	}
	return st.res.intact[key] > 0
}

// RecoverySource returns the first tier in order (fastest-first) that still
// holds an intact copy of (epoch, rank). Untracked snapshots report
// ("central", true): the legacy service is their implicit home. ok is false
// only when every copy of a tracked snapshot has been lost — callers should
// have filtered such epochs out via LatestVerified already.
func (st *Store) RecoverySource(epoch, rank int, order []string) (string, bool) {
	if !st.Tracked(epoch, rank) {
		return "central", true
	}
	for _, tier := range order {
		if st.TierIntact(epoch, rank, tier) > 0 {
			return tier, true
		}
	}
	return "", false
}
