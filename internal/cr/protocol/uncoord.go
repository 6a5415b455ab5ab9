package protocol

import (
	"fmt"

	"gbcr/internal/blcr"
)

// uncoordinated is uncoordinated C/R with sender-based message logging:
// every rank checkpoints on its own (no synchronization barrier, no channel
// flush or connection teardown, no send gating), so a cycle's member machine
// collapses to write-then-resume. Consistency across the recovery line comes
// from the MPI layer instead: with LogMessages enabled every sent payload is
// copied into a per-destination sender log (and sequence-numbered), and a
// restart replays the logged messages the restored receivers had not yet
// incorporated while receivers discard duplicate re-sends.
//
// There is no two-phase epoch commit: each snapshot becomes a restart
// candidate the moment its own write completes (per-rank durability), and
// the restart line is computed per rank, possibly mixing epochs.
type uncoordinated struct{}

// Kind implements Protocol.
func (uncoordinated) Kind() Kind { return Uncoordinated }

// Phases implements Protocol: no sync and no teardown — a member goes
// straight from its safe point to the local write.
func (uncoordinated) Phases() []Phase { return []Phase{PhaseWrite, PhaseResume} }

// Validate implements Protocol.
func (uncoordinated) Validate(o Options) error {
	if o.N <= 0 {
		return fmt.Errorf("protocol: uncoordinated protocol needs at least one rank, got %d", o.N)
	}
	if o.Dynamic {
		return fmt.Errorf("protocol: uncoordinated protocol does not form groups; drop Dynamic")
	}
	if o.GroupSize > 0 && o.GroupSize < o.N {
		return fmt.Errorf("protocol: uncoordinated protocol does not form groups; drop GroupSize %d", o.GroupSize)
	}
	if !o.Logging {
		return fmt.Errorf("protocol: uncoordinated protocol requires sender-based message logging; set mpi.Config.LogMessages")
	}
	return nil
}

// Plan implements Protocol: every rank is its own singleton group. The
// schedule carries no ordering — all "groups" run concurrently.
func (uncoordinated) Plan(o Options, _ []map[int]int64) [][]int {
	groups := make([][]int, o.N)
	for r := 0; r < o.N; r++ {
		groups[r] = []int{r}
	}
	return groups
}

// Blocking implements Protocol.
func (uncoordinated) Blocking() bool { return false }

// RestartLine implements Protocol: the per-rank recovery line — each rank's
// newest durable snapshot that still verifies, independently of every other
// rank's. Message-log replay bridges the resulting epoch skew.
func (uncoordinated) RestartLine(snaps *blcr.Store) Line {
	n := snaps.Size()
	line := Line{Snaps: make([]*blcr.Snapshot, n)}
	for rank := 0; rank < n; rank++ {
		_, s, skipped := snaps.LatestRankDurable(rank)
		line.Snaps[rank] = s
		line.Skipped += skipped
	}
	return line
}
