package protocol

import (
	"fmt"

	"gbcr/internal/blcr"
)

// blockingPhases is the four-phase cycle of the MVAPICH2-style blocking
// protocols: Initial Synchronization, Pre-checkpoint Coordination (channel
// flush + connection teardown), Local Checkpointing, Post-checkpoint
// Coordination.
var blockingPhases = []Phase{PhaseSync, PhaseTeardown, PhaseWrite, PhaseResume}

// groupBased is the paper's group-based blocking coordination.
type groupBased struct{}

// Kind implements Protocol.
func (groupBased) Kind() Kind { return Group }

// Phases implements Protocol.
func (groupBased) Phases() []Phase { return blockingPhases }

// Validate implements Protocol. The group protocol accepts every engine
// option: it is the scheme the engine was built around.
func (groupBased) Validate(o Options) error {
	if o.N <= 0 {
		return fmt.Errorf("protocol: group protocol needs at least one rank, got %d", o.N)
	}
	return nil
}

// Plan implements Protocol: static or traffic-driven group formation
// (Section 4.1).
func (groupBased) Plan(o Options, traffic []map[int]int64) [][]int {
	if o.Dynamic {
		return FormDynamicGroups(o.N, o.GroupSize, traffic)
	}
	return FormStaticGroups(o.N, o.GroupSize)
}

// Blocking implements Protocol.
func (groupBased) Blocking() bool { return true }

// RestartLine implements Protocol: the newest fully-committed, verified
// epoch, uniform across ranks.
func (groupBased) RestartLine(snaps *blcr.Store) Line { return completeLine(snaps) }
