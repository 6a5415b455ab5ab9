package protocol

import "fmt"

// Phase is one step of the paper's per-rank checkpointing cycle (§3). The
// set is closed and it is a type: Kind.Phases, the coordinator's
// PhaseHook and fault.Fault.Phase all carry a Phase, so a protocol cannot
// declare, and the engine cannot report, a phase the fault injector does not
// know. The zero value is no phase (a fault without a phase trigger).
type Phase uint8

const (
	// PhaseSync is Initial Synchronization: the rank reached its safe
	// point and waits for its whole group to stop.
	PhaseSync Phase = iota + 1
	// PhaseTeardown is Pre-checkpoint Coordination: in-transit messages
	// are flushed and connections torn down.
	PhaseTeardown
	// PhaseWrite is Local Checkpointing: the BLCR-style snapshot is
	// written to storage.
	PhaseWrite
	// PhaseResume is Post-checkpoint Coordination: the rank waits for its
	// group (blocking protocols) or resumes immediately (uncoordinated).
	PhaseResume
)

var phaseNames = [...]string{PhaseSync: "sync", PhaseTeardown: "teardown", PhaseWrite: "write", PhaseResume: "resume"}

func (p Phase) String() string {
	if p > 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// ParsePhase resolves a phase name typed by a user. The one place that
// happens is a fault spec's crash trigger, which the message says.
func ParsePhase(name string) (Phase, error) {
	for p := PhaseSync; int(p) < len(phaseNames); p++ {
		if phaseNames[p] == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown crash phase %q (want sync, teardown, write, or resume)", name)
}
