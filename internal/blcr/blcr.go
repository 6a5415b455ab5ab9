// Package blcr models the Berkeley Lab Checkpoint/Restart toolkit's role in
// the system: producing a per-process snapshot whose dominant cost is
// writing the process's memory footprint to storage, and carrying enough
// state to reconstruct the process on restart.
//
// In the paper, BLCR captures registers and memory transparently. In the
// simulation the equivalent is a Snapshot holding (a) the application state
// blob provided by the workload, (b) the MPI library state blob, and (c) the
// memory footprint size that determines the storage write.
package blcr

import (
	"fmt"
	"hash/fnv"

	"gbcr/internal/sim"
)

// Snapshot is one process's checkpoint image.
type Snapshot struct {
	Rank      int
	Epoch     int      // checkpoint number this snapshot belongs to
	TakenAt   sim.Time // simulated time of the capture
	Footprint int64    // bytes written to storage (the memory image)
	AppState  []byte   // serialized application state (may be nil in timing runs)
	LibState  []byte   // serialized MPI library state (may be nil in timing runs)
	checksum  uint64
}

// New captures a snapshot. The checksum covers both state blobs so restore
// can detect corruption.
func New(rank, epoch int, takenAt sim.Time, footprint int64, appState, libState []byte) *Snapshot {
	s := &Snapshot{
		Rank:      rank,
		Epoch:     epoch,
		TakenAt:   takenAt,
		Footprint: footprint,
		AppState:  appState,
		LibState:  libState,
	}
	s.checksum = s.computeChecksum()
	return s
}

func (s *Snapshot) computeChecksum() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/", s.Rank, s.Epoch, s.Footprint)
	h.Write(s.AppState)
	h.Write([]byte{0})
	h.Write(s.LibState)
	return h.Sum64()
}

// Verify checks the snapshot against its checksum.
func (s *Snapshot) Verify() error {
	if got := s.computeChecksum(); got != s.checksum {
		return fmt.Errorf("blcr: snapshot for rank %d epoch %d corrupted", s.Rank, s.Epoch)
	}
	return nil
}

// Corrupt damages the archived image in place, as a fault injector's model
// of bit rot or a torn write: a state byte is flipped when one exists,
// otherwise the stored checksum itself is perturbed. Verify fails afterwards.
func (s *Snapshot) Corrupt() {
	switch {
	case len(s.AppState) > 0:
		s.AppState[0] ^= 0xff
	case len(s.LibState) > 0:
		s.LibState[0] ^= 0xff
	default:
		s.checksum ^= 1
	}
}

// Size is the snapshot's storage image size in bytes.
func (s *Snapshot) Size() int64 {
	return s.Footprint + int64(len(s.AppState)) + int64(len(s.LibState))
}

// Store archives completed checkpoints: one snapshot per rank per epoch,
// with an epoch marked complete only when every rank's snapshot is present —
// the "global checkpoint is marked complete" step of the protocol.
type Store struct {
	n        int
	epochs   map[int]map[int]*Snapshot
	complete map[int]bool
	// durable marks per-rank durability (epoch → rank set) for protocols
	// without a global commit: uncoordinated C/R treats a snapshot as a
	// restart candidate as soon as its own write completed.
	durable  map[int]map[int]bool
	maxEpoch int
	// res is the residency ledger, indexed by epoch and then rank: the
	// physical copies a storage hierarchy placed (residency.go). A nil row is
	// an untracked epoch. tiers names the ledger's tier ids, id i+1 at i.
	res   [][]copySet
	tiers []string
}

// NewStore creates a store for an n-rank job.
func NewStore(n int) *Store {
	return &Store{
		n:        n,
		epochs:   make(map[int]map[int]*Snapshot),
		complete: make(map[int]bool),
		durable:  make(map[int]map[int]bool),
	}
}

// Size returns the number of ranks the store archives for.
func (st *Store) Size() int { return st.n }

// Put archives a snapshot. A duplicate (rank, epoch) means the protocol
// double-checkpointed a member and is reported as an error.
func (st *Store) Put(s *Snapshot) error {
	m := st.epochs[s.Epoch]
	if m == nil {
		m = make(map[int]*Snapshot)
		st.epochs[s.Epoch] = m
	}
	if m[s.Rank] != nil {
		return fmt.Errorf("blcr: duplicate snapshot rank %d epoch %d", s.Rank, s.Epoch)
	}
	m[s.Rank] = s
	if s.Epoch > st.maxEpoch {
		st.maxEpoch = s.Epoch
	}
	return nil
}

// MarkComplete commits that epoch's global checkpoint: the second phase of
// the two-phase commit. It is an error if any rank's snapshot is missing or
// fails verification — an epoch must never become a restart candidate on the
// strength of writes alone.
func (st *Store) MarkComplete(epoch int) error {
	if len(st.epochs[epoch]) != st.n {
		return fmt.Errorf("blcr: epoch %d marked complete with %d/%d snapshots",
			epoch, len(st.epochs[epoch]), st.n)
	}
	for rank := 0; rank < st.n; rank++ {
		s := st.epochs[epoch][rank]
		if s == nil {
			return fmt.Errorf("blcr: epoch %d missing snapshot for rank %d", epoch, rank)
		}
		if err := s.Verify(); err != nil {
			return fmt.Errorf("blcr: epoch %d commit rejected: %w", epoch, err)
		}
	}
	st.complete[epoch] = true
	return nil
}

// Discard drops every snapshot of an uncommitted epoch, the abort side of
// the two-phase commit: after a failed group cycle the partial epoch must
// not linger as half-written state. Discarding a committed epoch is an
// error.
func (st *Store) Discard(epoch int) error {
	if st.complete[epoch] {
		return fmt.Errorf("blcr: refusing to discard committed epoch %d", epoch)
	}
	delete(st.epochs, epoch)
	return nil
}

// Complete reports whether the epoch's global checkpoint is complete.
func (st *Store) Complete(epoch int) bool { return st.complete[epoch] }

// SetRankDurable marks one rank's snapshot at an epoch as durable: the
// per-rank commit of protocols without a global commit point (uncoordinated
// C/R). The snapshot must have been Put first.
func (st *Store) SetRankDurable(epoch, rank int) error {
	if st.epochs[epoch][rank] == nil {
		return fmt.Errorf("blcr: marking absent snapshot rank %d epoch %d durable", rank, epoch)
	}
	set := st.durable[epoch]
	if set == nil {
		set = make(map[int]bool)
		st.durable[epoch] = set
	}
	set[rank] = true
	return nil
}

// RankDurable reports whether a rank's snapshot at an epoch is a restart
// candidate: individually marked durable, or part of a committed epoch.
func (st *Store) RankDurable(epoch, rank int) bool {
	return st.durable[epoch][rank] || st.complete[epoch]
}

// LatestRankDurable returns one rank's newest durable snapshot that still
// passes Verify and keeps at least one tier copy, walking down past
// corrupted or lost epochs. skipped counts the durable snapshots rejected on
// the way; (0, nil, skipped) means the rank must restart from scratch.
func (st *Store) LatestRankDurable(rank int) (epoch int, s *Snapshot, skipped int) {
	for e := st.maxEpoch; e > 0; e-- {
		if !st.RankDurable(e, rank) {
			continue
		}
		snap := st.epochs[e][rank]
		if snap == nil {
			continue
		}
		if snap.Verify() != nil || !st.recoverable(e, rank) {
			skipped++
			continue
		}
		return e, snap, skipped
	}
	return 0, nil, skipped
}

// Latest returns the most recent complete epoch and its snapshots (rank →
// snapshot), or (0, nil) if none is complete.
func (st *Store) Latest() (int, map[int]*Snapshot) {
	best := 0
	//lint:allow-simdeterminism taking the maximum key is order-independent
	for e, ok := range st.complete {
		if ok && e > best {
			best = e
		}
	}
	if best == 0 {
		return 0, nil
	}
	return best, st.epochs[best]
}

// Get returns the snapshot for a rank at an epoch, or nil.
func (st *Store) Get(epoch, rank int) *Snapshot {
	return st.epochs[epoch][rank]
}

// LatestVerified returns the most recent committed epoch whose every
// snapshot still passes Verify and remains recoverable from at least one
// storage tier, skipping past epochs that were committed but have since been
// corrupted in the archive or whose copies were all lost to node failures.
// skipped counts the committed epochs rejected on the way down;
// (0, nil, skipped) means no usable epoch remains.
func (st *Store) LatestVerified() (epoch int, snaps map[int]*Snapshot, skipped int) {
	// Walk down from the newest committed epoch; epochs are small dense
	// positive integers, so the countdown visits every candidate.
	best, _ := st.Latest()
	for e := best; e > 0; e-- {
		if !st.complete[e] {
			continue
		}
		good := true
		for rank := 0; rank < st.n; rank++ {
			s := st.epochs[e][rank]
			if s == nil || s.Verify() != nil || !st.recoverable(e, rank) {
				good = false
				break
			}
		}
		if good {
			return e, st.epochs[e], skipped
		}
		skipped++
	}
	return 0, nil, skipped
}
