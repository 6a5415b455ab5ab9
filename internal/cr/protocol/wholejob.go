package protocol

import (
	"fmt"

	"gbcr/internal/blcr"
)

// wholeJob is the ICPP'06 baseline: one group covering the job, so the
// entire application stops, flushes, writes, and resumes as a unit. It runs
// the same four-phase member machine as the group protocol — with a single
// group there is exactly one turn, no cross-group gating ever triggers, and
// the cycle degenerates to plain whole-job blocking coordination.
type wholeJob struct{}

// Kind implements Protocol.
func (wholeJob) Kind() Kind { return WholeJob }

// Phases implements Protocol.
func (wholeJob) Phases() []Phase { return blockingPhases }

// Validate implements Protocol: options that would partition the job
// contradict the protocol's one-group definition.
func (wholeJob) Validate(o Options) error {
	if o.N <= 0 {
		return fmt.Errorf("protocol: whole-job protocol needs at least one rank, got %d", o.N)
	}
	if o.Dynamic {
		return fmt.Errorf("protocol: whole-job protocol does not form dynamic groups")
	}
	if o.GroupSize > 0 && o.GroupSize < o.N {
		return fmt.Errorf("protocol: whole-job protocol cannot honor group size %d (< %d ranks); use the group protocol", o.GroupSize, o.N)
	}
	return nil
}

// Plan implements Protocol: one group of all ranks.
func (wholeJob) Plan(o Options, _ []map[int]int64) [][]int {
	return FormStaticGroups(o.N, 0)
}

// Blocking implements Protocol.
func (wholeJob) Blocking() bool { return true }

// RestartLine implements Protocol: identical to the group protocol — both
// commit whole epochs atomically.
func (wholeJob) RestartLine(snaps *blcr.Store) Line { return completeLine(snaps) }
