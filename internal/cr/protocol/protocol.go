// Package protocol is the coordination-protocol policy of the
// checkpoint/restart stack. A Kind names one scheme, and its methods hold the
// decisions that distinguish it from the others:
//
//   - how a cycle's schedule is planned (which ranks checkpoint together,
//     and in what order);
//   - the per-rank phase vocabulary (what a member does between reaching a
//     safe point and resuming), which fault injection targets by name;
//   - the consistency and commit rules (blocking send-gated two-phase
//     commit versus per-rank durability with message logging);
//   - restart-line selection (which archived snapshots a restarted job
//     resumes from).
//
// Restart-line selection is policy because it is the dual of the commit
// rule: a protocol that commits whole epochs atomically may only ever restart
// from a complete epoch, while a protocol with per-rank durability must
// compute a per-rank recovery line.
//
// The set of kinds is closed. The engine that executes a protocol
// (coordinator, controllers, OOB messaging, safe points) stays in package cr
// and branches on Blocking, so a new scheme is a new constant here plus the
// engine branches it needs. The methods are pure policy over plain data, so
// they stay trivially deterministic and testable.
package protocol

import (
	"fmt"

	"gbcr/internal/blcr"
)

// Kind names a coordination protocol. The zero value is not a kind of its
// own: cr.Config.ResolveProtocol reads it as Group (group-based blocking
// coordination, the paper's contribution).
type Kind string

// The protocol zoo.
const (
	// Group is the paper's group-based blocking coordination: checkpoint
	// groups take turns, cross-group traffic is deferred, and an epoch
	// commits atomically once every rank saved.
	Group Kind = "group"
	// WholeJob is the ICPP'06 baseline: one group covering the job, so the
	// entire application stops, flushes, writes, and resumes as a unit. It
	// runs the same four-phase member machine as Group, with one turn and no
	// cross-group gating; it is the explicit form of the group-protocol
	// special case GroupSize 0 (or >= N).
	WholeJob Kind = "wholejob"
	// Uncoordinated is uncoordinated C/R with sender-based message logging:
	// ranks checkpoint independently (no synchronization, no send gating, no
	// connection teardown), so a member's cycle collapses to write-then-resume.
	// Every sent message is logged, each snapshot is a restart candidate once
	// its own write completes (per-rank durability, no epoch commit), and
	// restart computes a per-rank recovery line, replaying logged messages
	// that the restarted receivers had not yet incorporated.
	Uncoordinated Kind = "uncoord"
)

// Kinds lists the available protocols.
func Kinds() []Kind { return []Kind{Group, WholeJob, Uncoordinated} }

// kindNames spells each kind out in Validate's messages.
var kindNames = map[Kind]string{Group: "group", WholeJob: "whole-job", Uncoordinated: "uncoordinated"}

// Options is the protocol-relevant slice of the C/R configuration, handed to
// Validate and Plan. It mirrors cr.Config fields rather than importing them
// so the dependency points from the engine to the policy, not back.
type Options struct {
	// N is the job size.
	N int
	// GroupSize is the static checkpoint group size (0 = whole job).
	GroupSize int
	// Dynamic selects runtime group formation from traffic patterns.
	Dynamic bool
	// Logging reports whether sender-based message logging is enabled on the
	// MPI layer (mpi.Config.LogMessages).
	Logging bool
}

// Line is a restart line: the snapshots a restarted job resumes from.
type Line struct {
	// Snaps has one entry per rank; nil means that rank restarts from
	// scratch (its initial state). The blocking protocols always select one
	// uniform epoch, and hand out the archive's own slice: callers must not
	// write it. The uncoordinated recovery line may mix epochs across ranks.
	Snaps []*blcr.Snapshot
	// Skipped counts archived epochs rejected (corrupted or incomplete)
	// while computing the line.
	Skipped int
}

// Empty reports whether no rank has a snapshot to resume from.
func (l Line) Empty() bool {
	for _, s := range l.Snaps {
		if s != nil {
			return false
		}
	}
	return true
}

// Valid reports whether k names a protocol. The empty Kind is not one.
func (k Kind) Valid() bool { return kindNames[k] != "" }

// Blocking reports whether the protocol synchronizes ranks and gates
// cross-line traffic during a cycle. A non-blocking protocol checkpoints
// every rank independently and relies on logging for consistency.
func (k Kind) Blocking() bool { return k != Uncoordinated }

// Phases is the per-rank phase vocabulary in cycle order. Fault specs
// targeting a phase outside it are configuration errors. The blocking
// protocols run the MVAPICH2-style four-phase cycle: Initial Synchronization,
// Pre-checkpoint Coordination (channel flush + connection teardown), Local
// Checkpointing, Post-checkpoint Coordination. The uncoordinated one has no
// sync and no teardown: a member goes straight from its safe point to the
// local write. Callers share the slice and must not write it.
func (k Kind) Phases() []Phase {
	if !k.Blocking() {
		return cyclePhases[2:]
	}
	return cyclePhases
}

var cyclePhases = []Phase{PhaseSync, PhaseTeardown, PhaseWrite, PhaseResume}

// Validate rejects option combinations the protocol cannot honor. The group
// protocol accepts every engine option: it is the scheme the engine was built
// around. Options that would partition the job contradict the whole-job
// protocol's one-group definition, and the uncoordinated one forms no groups
// and needs logging.
func (k Kind) Validate(o Options) error {
	if !k.Valid() {
		return fmt.Errorf("protocol: unknown protocol %q (have %v)", k, Kinds())
	}
	if o.N <= 0 {
		return fmt.Errorf("protocol: %s protocol needs at least one rank, got %d", kindNames[k], o.N)
	}
	partial := o.GroupSize > 0 && o.GroupSize < o.N
	switch {
	case k == WholeJob && o.Dynamic:
		return fmt.Errorf("protocol: whole-job protocol does not form dynamic groups")
	case k == WholeJob && partial:
		return fmt.Errorf("protocol: whole-job protocol cannot honor group size %d (< %d ranks); use the group protocol", o.GroupSize, o.N)
	case k == Uncoordinated && o.Dynamic:
		return fmt.Errorf("protocol: uncoordinated protocol does not form groups; drop Dynamic")
	case k == Uncoordinated && partial:
		return fmt.Errorf("protocol: uncoordinated protocol does not form groups; drop GroupSize %d", o.GroupSize)
	case k == Uncoordinated && !o.Logging:
		return fmt.Errorf("protocol: uncoordinated protocol requires sender-based message logging; set mpi.Config.LogMessages")
	}
	return nil
}

// Plan forms the cycle schedule: groups checkpoint in slice order, ranks
// within a group together. The group protocol forms them statically or from
// traffic (Section 4.1); traffic (per-rank destination message counts) is
// only consulted by dynamic formation and may be nil otherwise. The whole-job
// protocol plans one group of all ranks, and the uncoordinated one makes
// every rank a singleton with no ordering: all "groups" run concurrently.
func (k Kind) Plan(o Options, traffic []map[int]int64) [][]int {
	switch {
	case k == Uncoordinated:
		groups := make([][]int, o.N)
		for r := range groups {
			groups[r] = []int{r}
		}
		return groups
	case k == WholeJob:
		return FormStaticGroups(o.N, 0)
	case o.Dynamic:
		return FormDynamicGroups(o.N, o.GroupSize, traffic)
	}
	return FormStaticGroups(o.N, o.GroupSize)
}

// RestartLine selects the snapshots a restarted job resumes from. The
// blocking protocols commit whole epochs atomically, so their line is the
// newest committed epoch whose every snapshot still verifies, uniform across
// ranks. The uncoordinated line is per rank: each rank's newest durable
// snapshot that still verifies, independently of every other rank's, with
// message-log replay bridging the resulting epoch skew.
func (k Kind) RestartLine(snaps *blcr.Store) Line {
	if k.Blocking() {
		_, byRank, skipped := snaps.LatestVerified()
		if byRank == nil { // no usable epoch: every rank restarts from scratch
			byRank = make([]*blcr.Snapshot, snaps.Size())
		}
		return Line{Snaps: byRank, Skipped: skipped}
	}
	line := Line{Snaps: make([]*blcr.Snapshot, snaps.Size())}
	for rank := range line.Snaps {
		_, s, skipped := snaps.LatestRankDurable(rank)
		line.Snaps[rank] = s
		line.Skipped += skipped
	}
	return line
}
