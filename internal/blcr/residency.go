// Multi-tier residency ledger: which physical copies of each archived
// snapshot exist, at which storage tier, and on which node. The ledger is
// what makes the storage hierarchy's recovery semantics honest — a committed
// epoch is only a restart candidate while at least one copy of every rank's
// image survives somewhere, and restart reads come from the fastest tier that
// still holds one.
//
// Tier names are plain strings supplied by the caller (the storage/tier
// package uses "ram", "local", "burst", "central"); blcr itself is
// tier-agnostic. Every simulated cluster writes through a tier.Hierarchy, so
// its archive records every copy. An epoch with no copy ever recorded is
// untracked and counts as recoverable: that is the rule for a stand-alone
// store no hierarchy writes to.

package blcr

// replica is one physical copy: the tier holding it, as the store's tier id
// (tierID; 0 marks an empty slot), and the node it lives on (-1 for a shared
// service like the burst buffer or central storage). Eight bytes, so that a
// copy set is 32 and an epoch's copies n × 32.
type replica struct {
	tier, node int32
}

// copySet is one rank's copies of one epoch, the first stored inline.
type copySet struct {
	first replica   // empty when the set is
	more  []replica // the copies after the first
}

func (c *copySet) len() int {
	if c.first.tier == 0 {
		return 0
	}
	return 1 + len(c.more)
}

func (c *copySet) at(i int) *replica {
	if i == 0 {
		return &c.first
	}
	return &c.more[i-1]
}

func (c *copySet) find(r replica) int {
	for i := 0; i < c.len(); i++ {
		if *c.at(i) == r {
			return i
		}
	}
	return -1
}

func (c *copySet) add(r replica) {
	if c.first.tier == 0 {
		c.first = r
	} else {
		c.more = append(c.more, r)
	}
}

// remove drops copy i, moving the last copy into its place.
func (c *copySet) remove(i int) {
	last := len(c.more)
	*c.at(i) = *c.at(last)
	if last == 0 {
		c.first = replica{}
	} else {
		c.more = c.more[:last-1]
	}
}

// dropIf removes every copy drop matches and returns how many went.
func (c *copySet) dropIf(drop func(replica) bool) int {
	lost := 0
	for i := 0; i < c.len(); {
		if drop(*c.at(i)) {
			c.remove(i)
			lost++
			continue
		}
		i++
	}
	return lost
}

// tierID returns the id of a tier name, numbering a new name from 1 in
// order of first use when add is set. 0 means the name is unknown.
func (st *Store) tierID(tier string, add bool) int32 {
	for i, name := range st.tiers {
		if name == tier {
			return int32(i + 1)
		}
	}
	if !add {
		return 0
	}
	st.tiers = append(st.tiers, tier)
	return int32(len(st.tiers))
}

// copies returns (epoch, rank)'s copy set, or nil when the epoch is
// untracked.
func (st *Store) copies(epoch, rank int) *copySet {
	row := st.row(epoch)
	if row == nil || row.copies == nil {
		return nil
	}
	return &row.copies[rank]
}

// AddReplica records that a copy of (epoch, rank)'s image now exists at the
// given tier on the given node (-1 for a shared service). Re-adding an
// existing copy is a no-op. The first copy of an epoch allocates its
// per-rank copy sets.
func (st *Store) AddReplica(epoch, rank int, tier string, node int) {
	row := st.grow(epoch)
	if row.copies == nil {
		row.copies = make([]copySet, st.n)
	}
	r := replica{tier: st.tierID(tier, true), node: int32(node)}
	if set := &row.copies[rank]; set.find(r) < 0 {
		set.add(r)
	}
}

// DropTierCopies removes every copy of (epoch, rank) at one tier — an
// eviction or a RAM double-buffer release — and returns how many copies were
// dropped.
func (st *Store) DropTierCopies(epoch, rank int, tier string) int {
	set, id := st.copies(epoch, rank), st.tierID(tier, false)
	if set == nil {
		return 0
	}
	return set.dropIf(func(r replica) bool { return r.tier == id })
}

// DropNodeReplicas removes every copy held on one node, at every tier and
// across all archived snapshots — the residency side of a node loss, where
// the node's memory and disk contents vanish with it. Copies at shared
// services (node -1) are never on a compute node and survive. It returns how
// many copies were lost.
func (st *Store) DropNodeReplicas(node int) int {
	lost := 0
	for e := range st.rows {
		for rank := range st.rows[e].copies {
			lost += st.rows[e].copies[rank].dropIf(func(r replica) bool { return r.node == int32(node) })
		}
	}
	return lost
}

// TierCopies counts the copies of (epoch, rank) at one tier.
func (st *Store) TierCopies(epoch, rank int, tier string) int {
	set, id := st.copies(epoch, rank), st.tierID(tier, false)
	if set == nil {
		return 0
	}
	n := 0
	for i := 0; i < set.len(); i++ {
		if set.at(i).tier == id {
			n++
		}
	}
	return n
}

// recoverable reports whether at least one copy of (epoch, rank) survives,
// or the epoch is untracked.
func (st *Store) recoverable(epoch, rank int) bool {
	set := st.copies(epoch, rank)
	return set == nil || set.len() > 0
}
