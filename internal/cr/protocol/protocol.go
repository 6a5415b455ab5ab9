// Package protocol defines the pluggable coordination-protocol boundary of
// the checkpoint/restart stack. A Protocol bundles the decisions that
// distinguish one C/R coordination scheme from another:
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
// Restart-line selection lives behind the interface because it is the dual
// of the commit rule: a protocol that commits whole epochs atomically may
// only ever restart from a complete epoch, while a protocol with per-rank
// durability must compute a per-rank recovery line. Letting the harness pick
// snapshots directly would silently couple it to one commit scheme.
//
// The engine that executes a protocol (coordinator, controllers, OOB
// messaging, safe points) stays in package cr; implementations here are pure
// policy over plain data, so they stay trivially deterministic and testable.
package protocol

import (
	"fmt"

	"gbcr/internal/blcr"
)

// Kind names a coordination protocol. The zero value selects the default
// (group-based blocking coordination, the paper's contribution).
type Kind string

// The protocol zoo.
const (
	// Group is the paper's group-based blocking coordination: checkpoint
	// groups take turns, cross-group traffic is deferred, and an epoch
	// commits atomically once every rank saved.
	Group Kind = "group"
	// WholeJob is the ICPP'06 baseline: every rank checkpoints at once, a
	// single group covering the job. It is the explicit form of the
	// group-protocol special case GroupSize 0 (or >= N).
	WholeJob Kind = "wholejob"
	// Uncoordinated is uncoordinated C/R with sender-based message logging:
	// ranks checkpoint independently (no synchronization, no send gating, no
	// connection teardown), every sent message is logged, and restart
	// computes a per-rank recovery line, replaying logged messages that the
	// restarted receivers had not yet incorporated.
	Uncoordinated Kind = "uncoord"
)

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
	// uniform epoch; the uncoordinated recovery line may mix epochs across
	// ranks.
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

// Protocol is one coordination scheme's policy surface. Implementations are
// stateless values; all state lives in the engine and the snapshot store.
type Protocol interface {
	// Kind names the protocol.
	Kind() Kind
	// Phases is the per-rank phase vocabulary in cycle order. Fault specs
	// targeting a phase outside this vocabulary are configuration errors.
	Phases() []Phase
	// Validate rejects option combinations the protocol cannot honor.
	Validate(o Options) error
	// Plan forms the cycle schedule: groups checkpoint in slice order, ranks
	// within a group together. traffic (per-rank destination message counts)
	// is only consulted by dynamic formation and may be nil otherwise.
	Plan(o Options, traffic []map[int]int64) [][]int
	// Blocking reports whether the protocol synchronizes ranks and gates
	// cross-line traffic during a cycle. Non-blocking protocols checkpoint
	// every rank independently and rely on logging for consistency.
	Blocking() bool
	// RestartLine selects the snapshots a restarted job resumes from.
	RestartLine(snaps *blcr.Store) Line
}

// ForKind resolves a protocol by name; the empty Kind resolves to Group.
func ForKind(k Kind) (Protocol, error) {
	switch k {
	case "", Group:
		return groupBased{}, nil
	case WholeJob:
		return wholeJob{}, nil
	case Uncoordinated:
		return uncoordinated{}, nil
	default:
		return nil, fmt.Errorf("protocol: unknown protocol %q (have %v)", k, Kinds())
	}
}

// Kinds lists the available protocols.
func Kinds() []Kind { return []Kind{Group, WholeJob, Uncoordinated} }

// completeLine is the shared restart-line rule of the blocking protocols:
// the newest committed epoch whose every snapshot still verifies, uniform
// across ranks. It is the read side of the atomic two-phase epoch commit.
func completeLine(snaps *blcr.Store) Line {
	epoch, byRank, skipped := snaps.LatestVerified()
	line := Line{Snaps: make([]*blcr.Snapshot, snaps.Size()), Skipped: skipped}
	if epoch == 0 {
		return line
	}
	for rank := range line.Snaps {
		line.Snaps[rank] = byRank[rank]
	}
	return line
}
