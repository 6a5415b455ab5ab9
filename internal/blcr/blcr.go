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
	"hash/crc32"

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

// castagnoli is the CRC-32C table, which hash/crc32 computes in hardware
// where the CPU has it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// computeChecksum hashes the header's numbers with FNV-1a, eight bytes each,
// and each state blob with CRC-32C into its own half of the result, so bytes
// cannot move from one blob to the other unseen. Nothing is formatted or
// allocated: the header never becomes a byte slice, which would escape into
// the hash.
func (s *Snapshot) computeChecksum() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [3]int64{int64(s.Rank), int64(s.Epoch), s.Footprint} {
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint64(v)>>i&0xff) * 1099511628211
		}
	}
	return h ^ uint64(crc32.Checksum(s.AppState, castagnoli))<<32 ^ uint64(crc32.Checksum(s.LibState, castagnoli))
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
	n int
	// rows holds one row per epoch, indexed by epoch; row 0 is unused.
	rows []epochRow
	// tiers names the residency ledger's tier ids, id i+1 at i
	// (residency.go).
	tiers []string
}

// epochRow is one epoch of the archive. Each rank-indexed slice stays nil
// until its first write.
type epochRow struct {
	snaps    []*Snapshot
	complete bool
	// durable marks per-rank durability for protocols without a global
	// commit: uncoordinated C/R treats a snapshot as a restart candidate as
	// soon as its own write completed.
	durable []bool
	// copies are the physical copies a storage hierarchy placed
	// (residency.go); nil is an untracked epoch.
	copies []copySet
}

// NewStore creates a store for an n-rank job.
func NewStore(n int) *Store { return &Store{n: n} }

// Size returns the number of ranks the store archives for.
func (st *Store) Size() int { return st.n }

// row returns an epoch's row, or nil when nothing of it was ever recorded.
func (st *Store) row(epoch int) *epochRow {
	if epoch <= 0 || epoch >= len(st.rows) {
		return nil
	}
	return &st.rows[epoch]
}

// grow returns an epoch's row, extending the archive to hold it; epoch > 0.
func (st *Store) grow(epoch int) *epochRow {
	for len(st.rows) <= epoch {
		st.rows = append(st.rows, epochRow{})
	}
	return &st.rows[epoch]
}

// Put archives a snapshot. A rank outside the job, an epoch below 1, or a
// duplicate (rank, epoch) — the protocol double-checkpointed a member — is
// reported as an error.
func (st *Store) Put(s *Snapshot) error {
	if s.Rank < 0 || s.Rank >= st.n || s.Epoch <= 0 {
		return fmt.Errorf("blcr: snapshot rank %d epoch %d outside a %d-rank store", s.Rank, s.Epoch, st.n)
	}
	row := st.grow(s.Epoch)
	if row.snaps == nil {
		row.snaps = make([]*Snapshot, st.n)
	}
	if row.snaps[s.Rank] != nil {
		return fmt.Errorf("blcr: duplicate snapshot rank %d epoch %d", s.Rank, s.Epoch)
	}
	row.snaps[s.Rank] = s
	return nil
}

// MarkComplete commits that epoch's global checkpoint: the second phase of
// the two-phase commit. It is an error if any rank's snapshot is missing or
// fails verification — an epoch must never become a restart candidate on the
// strength of writes alone.
func (st *Store) MarkComplete(epoch int) error {
	for rank := 0; rank < st.n; rank++ {
		s := st.Get(epoch, rank)
		if s == nil {
			return fmt.Errorf("blcr: epoch %d missing snapshot for rank %d", epoch, rank)
		}
		if err := s.Verify(); err != nil {
			return fmt.Errorf("blcr: epoch %d commit rejected: %w", epoch, err)
		}
	}
	st.grow(epoch).complete = true
	return nil
}

// Discard drops every snapshot of an uncommitted epoch, the abort side of
// the two-phase commit: after a failed group cycle the partial epoch must
// not linger as half-written state. Discarding a committed epoch is an
// error.
func (st *Store) Discard(epoch int) error {
	if st.Complete(epoch) {
		return fmt.Errorf("blcr: refusing to discard committed epoch %d", epoch)
	}
	if row := st.row(epoch); row != nil {
		row.snaps = nil
	}
	return nil
}

// Complete reports whether the epoch's global checkpoint is complete.
func (st *Store) Complete(epoch int) bool {
	row := st.row(epoch)
	return row != nil && row.complete
}

// SetRankDurable marks one rank's snapshot at an epoch as durable: the
// per-rank commit of protocols without a global commit point (uncoordinated
// C/R). The snapshot must have been Put first.
func (st *Store) SetRankDurable(epoch, rank int) error {
	if st.Get(epoch, rank) == nil {
		return fmt.Errorf("blcr: marking absent snapshot rank %d epoch %d durable", rank, epoch)
	}
	row := st.row(epoch)
	if row.durable == nil {
		row.durable = make([]bool, st.n)
	}
	row.durable[rank] = true
	return nil
}

// RankDurable reports whether a rank's snapshot at an epoch is a restart
// candidate: individually marked durable, or part of a committed epoch.
func (st *Store) RankDurable(epoch, rank int) bool {
	row := st.row(epoch)
	return row != nil && (row.complete || row.durable != nil && row.durable[rank])
}

// LatestRankDurable returns one rank's newest durable snapshot that still
// passes Verify and keeps at least one tier copy, walking down past
// corrupted or lost epochs. skipped counts the durable snapshots rejected on
// the way; (0, nil, skipped) means the rank must restart from scratch.
func (st *Store) LatestRankDurable(rank int) (epoch int, s *Snapshot, skipped int) {
	for e := len(st.rows) - 1; e > 0; e-- {
		snap := st.Get(e, rank)
		if snap == nil || !st.RankDurable(e, rank) {
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

// Get returns the snapshot for a rank at an epoch, or nil.
func (st *Store) Get(epoch, rank int) *Snapshot {
	row := st.row(epoch)
	if row == nil || row.snaps == nil || rank < 0 || rank >= st.n {
		return nil
	}
	return row.snaps[rank]
}

// LatestVerified returns the most recent committed epoch whose every
// snapshot still passes Verify and remains recoverable from at least one
// storage tier, skipping past epochs that were committed but have since been
// corrupted in the archive or whose copies were all lost to node failures.
// The snapshots are indexed by rank, and the slice is the archive's own:
// callers must not write it. skipped counts the committed epochs rejected on
// the way down; (0, nil, skipped) means no usable epoch remains.
func (st *Store) LatestVerified() (epoch int, snaps []*Snapshot, skipped int) {
	for e := len(st.rows) - 1; e > 0; e-- {
		row := &st.rows[e]
		if !row.complete {
			continue
		}
		good := true
		for rank, s := range row.snaps { // a committed row holds every rank
			if s.Verify() != nil || !st.recoverable(e, rank) {
				good = false
				break
			}
		}
		if good {
			return e, row.snaps, skipped
		}
		skipped++
	}
	return 0, nil, skipped
}
