// Package cr implements the paper's contribution: coordinated
// checkpoint/restart for the simulated MPI stack, covering both the regular
// blocking protocol (all processes checkpoint simultaneously — the paper's
// "All" configuration and its ICPP'06 predecessor) and the group-based
// protocol, in which processes checkpoint group by group while other groups
// keep computing.
//
// Structure, mirroring the MVAPICH2 C/R framework (Section 2.2):
//
//   - a global Coordinator orchestrates the checkpointing cycle over the
//     out-of-band channel;
//   - a local Controller in each MPI process participates: it reaches a safe
//     point, runs Initial Synchronization, Pre-checkpoint Coordination
//     (channel flush + connection teardown), Local Checkpointing (the
//     BLCR-style snapshot written to shared storage), and Post-checkpoint
//     Coordination (resume);
//   - consistency between groups is kept without message logging by
//     deferring cross-recovery-line traffic: the controller's send gate puts
//     messages into the MPI outbox (message buffering / request buffering,
//     Section 4.3) and connection acceptance is epoch-gated (Section 4.2),
//     releasing as soon as both endpoints have checkpointed.
package cr

import (
	"fmt"
	"strings"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/sim"
)

// Config parameterizes a checkpoint/restart deployment.
type Config struct {
	// Protocol selects the coordination protocol (see cr/protocol): "group"
	// (default), "wholejob", or "uncoord". The empty value and "wholejob"
	// resolve to the group protocol; "wholejob" spells it with one group.
	Protocol protocol.Kind
	// GroupSize is the static checkpoint group size. Zero (or >= the job
	// size) means all processes checkpoint at once: the regular coordinated
	// protocol.
	GroupSize int
	// Dynamic selects runtime group formation from the observed
	// communication pattern (Section 4.1); GroupSize then caps the group
	// size and is the fallback when the application communicates globally.
	Dynamic bool
	// HelperEnabled activates the passive-coordination helper thread on
	// ranks outside the checkpointing group (Section 4.4), under blocking
	// protocols only. Disabling it is the asynchronous-progress ablation.
	HelperEnabled bool
	// LocalSetup is the fixed per-process cost of taking the local
	// snapshot before the storage write begins: BLCR's process freeze,
	// checkpoint-file creation, metadata registration. It is paid once per
	// member per checkpoint, so many small groups pay it many times over —
	// one reason very small checkpoint groups can be slower than larger
	// ones (Figure 3).
	LocalSetup sim.Time
	// Incremental enables incremental checkpointing — the future-work
	// direction the paper names (cf. TICK): after a process's first full
	// snapshot, later snapshots write only the memory dirtied since the
	// previous checkpoint, modeled as floor + dirtyBW × elapsed, capped at
	// the full footprint.
	Incremental bool
}

// retryBackoff is the delay before the first retry of a checkpoint aborted by
// a write failure (storage outage mid-cycle); it doubles per consecutive
// failure up to retryBackoffCap.
const (
	retryBackoff    = 100 * sim.Millisecond
	retryBackoffCap = 16 * retryBackoff
)

// maxCycleRetries caps consecutive aborted cycles (or, without a coordinator
// to abort, one rank's consecutive write retries) before the storage system
// is declared unusable and the run fails.
const maxCycleRetries = 8

// writeRetryBackoff returns the capped exponential backoff before the
// attempt-th retry of a failed snapshot write (cycle-wide abort-retry for the
// blocking protocols, per-rank local retry for the uncoordinated one).
func writeRetryBackoff(attempt int) sim.Time {
	return sim.Backoff(retryBackoff, attempt-1, retryBackoffCap)
}

// DefaultConfig returns a regular-protocol configuration with the helper
// thread enabled.
func DefaultConfig() Config {
	return Config{HelperEnabled: true}
}

// protocolOptions projects the configuration onto the protocol-policy
// options for an n-rank job with the given MPI logging state.
func (cfg Config) protocolOptions(n int, logging bool) protocol.Options {
	return protocol.Options{
		N:         n,
		GroupSize: cfg.GroupSize,
		Dynamic:   cfg.Dynamic,
		Logging:   logging,
	}
}

// ResolveProtocol resolves and validates the configured coordination
// protocol for an n-rank job; logging is mpi.Config.LogMessages. The empty
// value resolves to Group, and so does the whole-job spelling: the ICPP'06
// baseline is the group protocol with one group covering the job, so the
// spelling rejects options that would form any other schedule. The harness calls it
// to front-run constructor errors and to read the protocol's phase
// vocabulary before a cluster exists.
func (cfg Config) ResolveProtocol(n int, logging bool) (protocol.Kind, error) {
	kind := cfg.Protocol
	switch {
	case kind == "":
		kind = protocol.Group
	case kind != protocol.WholeJob: // a kind, or an unknown name Validate rejects
	case n <= 0:
		return "", fmt.Errorf("protocol: whole-job protocol needs at least one rank, got %d", n)
	case cfg.Dynamic:
		return "", fmt.Errorf("protocol: whole-job protocol does not form dynamic groups")
	case cfg.GroupSize > 0 && cfg.GroupSize < n:
		return "", fmt.Errorf("protocol: whole-job protocol cannot honor group size %d (< %d ranks); use the group protocol", cfg.GroupSize, n)
	default:
		kind = protocol.Group
	}
	if err := kind.Validate(cfg.protocolOptions(n, logging)); err != nil {
		return "", err
	}
	return kind, nil
}

// CoordinatorID is the endpoint id the global coordinator uses on the
// fabric's out-of-band channel.
const CoordinatorID = -1

// Out-of-band control messages. Coordinator-to-controller messages are
// processed immediately on arrival (the controller-thread model);
// controller-to-coordinator messages likewise.
type (
	// msgCkptRequest opens a checkpointing cycle and hands every rank the
	// cycle's report: rep.Groups is the group schedule, and groupOf its
	// inverse, rank → group (-1: in no group), built once per cycle.
	// Receivers keep both and write only their own slot of rep.Records.
	msgCkptRequest struct {
		rep     *CycleReport
		groupOf []int
	}
	// msgTurn announces that a group's checkpoint begins. Members reach a
	// safe point; everyone else stops sending to that group.
	msgTurn struct {
		cycle, group int
	}
	// msgGo releases a group's members into pre-checkpoint coordination
	// once all of them reached their safe point (Initial Synchronization).
	msgGo struct {
		cycle, group int
	}
	// msgGroupDone announces that every member of a group has saved its
	// snapshot: the group resumes and cross-group gates involving it are
	// re-evaluated.
	msgGroupDone struct {
		cycle, group int
	}
	// msgCycleDone marks the global checkpoint complete.
	msgCycleDone struct {
		cycle int
	}
	// msgReady tells the coordinator a member reached its safe point.
	msgReady struct {
		cycle, rank int
	}
	// msgSaved tells the coordinator a member's snapshot is on storage:
	// acknowledged at the fastest tier of the stack that accepted it.
	msgSaved struct {
		cycle, rank int
	}
	// msgWriteFailed tells the coordinator a member's snapshot write was
	// aborted mid-cycle (storage outage). The coordinator answers by
	// aborting the whole cycle.
	msgWriteFailed struct {
		cycle, rank int
	}
	// msgAbort cancels an in-progress cycle on every rank: partial
	// snapshots are discarded, optimistic epoch increments roll back, and
	// stopped processes resume. The coordinator retries the checkpoint
	// after a bounded backoff.
	msgAbort struct {
		cycle int
	}
)

// CkptRecord captures one rank's participation in one checkpoint cycle, the
// raw material for the paper's three metrics.
type CkptRecord struct {
	Cycle        int
	Group        int
	SafePointAt  sim.Time // execution stops (downtime begins)
	GoAt         sim.Time // initial synchronization complete
	TeardownDone sim.Time // channels flushed, connections down
	WriteStart   sim.Time
	WriteEnd     sim.Time // snapshot on storage
	ResumeAt     sim.Time // execution resumes (downtime ends)
	Footprint    int64

	// Consistency-deferral activity during the cycle (Section 4.3): eager
	// messages held in communication buffers, requests held incomplete,
	// and the payload bytes involved.
	BufferedMsgs  int
	BufferedReqs  int
	BufferedBytes int64
}

// Individual is the paper's Individual Checkpoint Time: the downtime this
// process observed.
func (r CkptRecord) Individual() sim.Time { return r.ResumeAt - r.SafePointAt }

// StorageTime is the portion of the downtime spent writing to storage.
func (r CkptRecord) StorageTime() sim.Time { return r.WriteEnd - r.WriteStart }

// CoordinationTime is the downtime not spent writing: synchronization,
// channel flush, connection teardown, and resume scheduling.
func (r CkptRecord) CoordinationTime() sim.Time { return r.Individual() - r.StorageTime() }

// CycleReport summarizes one global checkpoint.
type CycleReport struct {
	Cycle     int
	Groups    [][]int
	RequestAt sim.Time
	DoneAt    sim.Time
	// DrainedAt is when the last rank's image of this checkpoint reached
	// central storage (tier.Hierarchy.ColdAt), set only when that came after
	// DoneAt. It is zero when every image was already central at commit — a
	// one-level central stack, or writes that spilled through to central —
	// and while a drain is in flight or abandoned.
	DrainedAt sim.Time
	Records   []CkptRecord // one slot per world rank, filed by its controller

	// epoch is the global checkpoint this cycle committed; it trails Cycle
	// once cycles abort.
	epoch int
}

// Total is the paper's Total Checkpoint Time: request issued to global
// checkpoint complete.
func (r *CycleReport) Total() sim.Time { return r.DoneAt - r.RequestAt }

// VulnerabilityWindow is how long after the cycle completed the new
// checkpoint existed only above central storage: DrainedAt - DoneAt, never
// negative, and zero when DrainedAt is. Under node-local staging a node loss
// in this window falls back to the previous checkpoint.
func (r *CycleReport) VulnerabilityWindow() sim.Time {
	if r.DrainedAt == 0 {
		return 0
	}
	return r.DrainedAt - r.DoneAt
}

// MaxIndividual returns the largest per-process downtime in the cycle.
func (r *CycleReport) MaxIndividual() sim.Time {
	var m sim.Time
	for _, rec := range r.Records {
		if d := rec.Individual(); d > m {
			m = d
		}
	}
	return m
}

// MeanIndividual returns the average per-process downtime in the cycle.
func (r *CycleReport) MeanIndividual() sim.Time {
	if len(r.Records) == 0 {
		return 0
	}
	var sum sim.Time
	for _, rec := range r.Records {
		sum += rec.Individual()
	}
	return sum / sim.Time(len(r.Records))
}

// BufferedTotals sums the cycle's message- and request-buffering activity
// across ranks (Section 4.3).
func (r *CycleReport) BufferedTotals() (msgs, reqs int, bytes int64) {
	for _, rec := range r.Records {
		msgs += rec.BufferedMsgs
		reqs += rec.BufferedReqs
		bytes += rec.BufferedBytes
	}
	return msgs, reqs, bytes
}

// StorageShare reports the fraction of total downtime spent in storage
// writes — the paper observes this is over 95% for the regular protocol.
func (r *CycleReport) StorageShare() float64 {
	var ind, st sim.Time
	for _, rec := range r.Records {
		ind += rec.Individual()
		st += rec.StorageTime()
	}
	if ind == 0 {
		return 0
	}
	return float64(st) / float64(ind)
}

// Gantt renders the cycle as an ASCII timeline, one row per rank, from the
// request to the last resume: '.' is normal execution, 'c' is coordination
// (stopped but not writing), 'W' is the storage write. The staggered
// group-by-group schedule is directly visible.
func (r *CycleReport) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	end := r.DoneAt
	for _, rec := range r.Records {
		if rec.ResumeAt > end {
			end = rec.ResumeAt
		}
	}
	span := end - r.RequestAt
	if span <= 0 {
		return ""
	}
	col := func(t sim.Time) int {
		c := int(int64(t-r.RequestAt) * int64(width) / int64(span))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint cycle %d: %v ... %v (W=write, c=coordination)\n",
		r.Cycle, r.RequestAt, end)
	for rank, rec := range r.Records {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for i := col(rec.SafePointAt); i <= col(rec.ResumeAt); i++ {
			row[i] = 'c'
		}
		for i := col(rec.WriteStart); i <= col(rec.WriteEnd); i++ {
			row[i] = 'W'
		}
		fmt.Fprintf(&b, "rank %2d |%s|\n", rank, row)
	}
	return b.String()
}
