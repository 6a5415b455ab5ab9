package mpi

import "strconv"

// collTagBase separates internal collective tags from application tags.
// Application tags must be smaller than this.
const collTagBase = 1 << 30

// Comm is a communicator handle: an ordered group of world ranks plus a
// matching context. Like real MPI communicators, a Comm value is local to one
// rank; all member ranks must create communicators over the same membership
// at the same per-rank creation index so that their context ids agree (real
// MPI guarantees this with a collective context-id allocation).
type Comm struct {
	id      int64
	ranks   []int // comm rank -> world rank
	myRank  int   // this rank's position in ranks, or -1 if not a member
	collSeq int   // per-rank collective sequence; advances in lockstep
}

// nextCollTag allocates the internal tag for the next collective operation.
// Member ranks call collectives on a communicator in the same order, so the
// sequence — and thus the tag — agrees across ranks.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return collTagBase + c.collSeq
}

// commID derives a context id from the creation index and the membership, so
// mismatched creations fail to match (and surface as a simulation deadlock)
// instead of silently crossing streams. The hash is 32-bit FNV-1a over each
// member's decimal text and a comma.
func commID(index int, ranks []int) int64 {
	h := uint32(2166136261)
	var b [24]byte
	for _, r := range ranks {
		for _, c := range strconv.AppendInt(b[:0], int64(r), 10) {
			h = (h ^ uint32(c)) * 16777619
		}
		h = (h ^ ',') * 16777619
	}
	return int64(index)<<32 | int64(h)
}

// Size returns the number of member ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns the calling rank's position within the communicator, or -1 if
// it is not a member.
func (c *Comm) Rank() int { return c.myRank }

// World translates a comm rank to a world rank, or -1 if the communicator has
// no such rank.
func (c *Comm) World(commRank int) int {
	if commRank < 0 || commRank >= len(c.ranks) {
		return -1
	}
	return c.ranks[commRank]
}
