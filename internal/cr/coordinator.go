package cr

import (
	"fmt"

	"gbcr/internal/blcr"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
)

// Coordinator is the global C/R coordinator: it forms the checkpoint groups,
// walks them through the cycle one group at a time over the out-of-band
// channel, and archives the resulting snapshots.
type Coordinator struct {
	k     *sim.Kernel
	job   *mpi.Job
	cfg   Config
	ep    *ib.Endpoint
	ctls  []*Controller
	snaps *blcr.Store

	// tiers is the storage stack every snapshot write goes through: writes
	// acknowledge at its fastest durable tier and epoch commit gates on the
	// replication degree there, while any drain toward central storage
	// continues in the background. Under ModeCentral it is the one level
	// [central].
	tiers *tier.Hierarchy

	// proto is the resolved coordination protocol; tag is the protocol as
	// written, appended to cycle events when one was selected explicitly
	// (empty for default-config runs, whose traces carry no protocol name).
	// cyclesName names the per-protocol cycle counter, built once.
	proto      protocol.Kind
	tag        string
	cyclesName string

	// cur is the report of the cycle in progress, nil between cycles. ready
	// and saved count the msgReady and msgSaved of the turn — of the whole
	// job under the polled quiesce and uncoord: a member sends each at most
	// once per turn of a live cycle.
	cur          *CycleReport
	cycle        int
	turn         int
	ready, saved int
	reports      []*CycleReport

	// Two-phase commit state: epoch counts committed global checkpoints and
	// diverges from cycle once a cycle aborts (the retried cycle gets a new
	// cycle number but targets the same epoch). cycleRetries counts
	// consecutive aborts of the current target epoch; aborts counts them
	// over the coordinator's lifetime.
	epoch        int
	cycleRetries int
	aborts       int

	// OnCycleDone, if non-nil, is invoked when a global checkpoint
	// completes.
	OnCycleDone func(rep *CycleReport)

	// PhaseHook, if non-nil, observes every per-rank protocol phase entry:
	// phase is drawn from the protocol's phase vocabulary (Kind.Phases:
	// all four for the blocking protocols, write and resume for the
	// uncoordinated one), and epoch is the epoch the cycle is building
	// (committed epochs + 1). The fault injector uses it to target "rank R
	// during phase P of epoch E".
	PhaseHook func(rank int, phase protocol.Phase, epoch int)

	capture func(rank int) ([]byte, error) // see SetCapture; nil in signal mode

	// bus receives the protocol timeline (cycle control on the system
	// track, per-rank phase spans) when a sink is attached; nil is fine.
	bus *obs.Bus
}

// SetObs attaches an observability bus (nil detaches). The protocol timeline
// — cycle request/turn/group-done/cycle-done on the system track, per-rank
// phase spans (sync, teardown, write, resume-wait) — is emitted as
// cr-layer events, and every rank's phase durations and buffering deltas are
// observed into the bus's registry.
func (co *Coordinator) SetObs(b *obs.Bus) { co.bus = b }

// SetCapture installs fn to serialize each rank's application state for
// functional restart, and with it the polled discipline: safe-point requests
// wait for the application's next library call or MaybeCheckpoint boundary,
// and every snapshot records the application and library state. Without it,
// checkpoints interrupt like a BLCR signal and write footprint-sized images.
func (co *Coordinator) SetCapture(fn func(rank int) ([]byte, error)) { co.capture = fn }

// polled reports whether a capture function selected the polled discipline.
func (co *Coordinator) polled() bool { return co.capture != nil }

// emit records a cr-layer coordinator event on the system track: val for a
// structured kind (obs.Event.Text), detail for the rest.
func (co *Coordinator) emit(what obs.Kind, val int64, detail string) {
	co.bus.Emit(obs.Event{At: co.k.Now(), Rank: -1, Layer: obs.LayerCR,
		Type: obs.Instant, What: what, Val: val, Detail: detail})
}

// New attaches a coordinator and per-rank controllers to a job, writing
// snapshots through the storage stack h, which it binds to the snapshot
// archive so the archive's residency ledger records every copy h places. It
// must be called before ranks are launched so the hooks observe all
// activity.
func New(k *sim.Kernel, job *mpi.Job, h *tier.Hierarchy, cfg Config) (*Coordinator, error) {
	proto, err := cfg.ResolveProtocol(job.Size(), job.Config().LogMessages)
	if err != nil {
		return nil, fmt.Errorf("cr: %w", err)
	}
	ep, err := job.Fabric().AddEndpoint(CoordinatorID)
	if err != nil {
		return nil, fmt.Errorf("cr: registering coordinator endpoint: %w", err)
	}
	co := &Coordinator{
		k:          k,
		job:        job,
		tiers:      h,
		cfg:        cfg,
		ep:         ep,
		proto:      proto,
		snaps:      blcr.NewStore(job.Size()),
		cyclesName: "cycles_" + string(proto),
	}
	h.Bind(co.snaps)
	if cfg.Protocol != "" {
		// Tag cycle events with the explicitly-selected protocol so traces
		// of different protocols are distinguishable side by side.
		co.tag = fmt.Sprintf(" [%s]", cfg.Protocol)
	}
	co.ep.OnOOB = co.onMsg
	co.ctls = make([]*Controller, job.Size())
	slab := make([]Controller, job.Size()) // one allocation for every controller
	for i := range slab {
		co.ctls[i] = slab[i].attach(co, job.Rank(i))
	}
	return co, nil
}

// Controller returns the controller attached to a rank.
func (co *Coordinator) Controller(rank int) *Controller { return co.ctls[rank] }

// Protocol returns the resolved coordination protocol. Restart paths use it
// to select the restart line, the fault layer to resolve phase names.
func (co *Coordinator) Protocol() protocol.Kind { return co.proto }

// Snapshots returns the archive of completed checkpoints.
func (co *Coordinator) Snapshots() *blcr.Store { return co.snaps }

// Reports returns the completed cycle reports. Call it after the simulation
// has quiesced: the last group resumes, completing its records (ResumeAt,
// after the write, so never zero), shortly after the cycle completes; reading
// earlier returns an error. DrainedAt is read here, so it reflects the drains
// that have landed by the time of the call.
func (co *Coordinator) Reports() ([]*CycleReport, error) {
	for _, rep := range co.reports {
		for rank, rec := range rep.Records {
			if rec.ResumeAt == 0 {
				return nil, fmt.Errorf("cr: rank %d has no record for cycle %d (report read too early?)", rank, rep.Cycle)
			}
		}
		if at := co.tiers.ColdAt(rep.epoch); at > rep.DoneAt {
			rep.DrainedAt = at
		}
	}
	return co.reports, nil
}

// Epoch returns the number of committed global checkpoints. It lags behind
// the cycle count once cycles abort: only a cycle whose every snapshot is
// written and verified commits an epoch.
func (co *Coordinator) Epoch() int { return co.epoch }

// Aborts returns how many checkpoint cycles were aborted and retried.
func (co *Coordinator) Aborts() int { return co.aborts }

// ScheduleCheckpoint arranges for a checkpoint request at absolute time t.
func (co *Coordinator) ScheduleCheckpoint(t sim.Time) {
	co.k.At(t, co.RequestCheckpoint)
}

// RequestCheckpoint opens a checkpointing cycle now: groups are formed
// (statically or from the observed communication pattern), the schedule is
// broadcast, and the first group's turn begins.
func (co *Coordinator) RequestCheckpoint() {
	if co.cur != nil {
		co.k.Fail(fmt.Errorf("cr: overlapping checkpoint cycles"))
		return
	}
	co.cycle++
	n := co.job.Size()
	var traffic []map[int]int64
	if co.cfg.Dynamic {
		traffic = make([]map[int]int64, n)
		for i := 0; i < n; i++ {
			traffic[i] = co.job.Rank(i).Traffic()
		}
	}
	co.cur = &CycleReport{
		Cycle:     co.cycle,
		Groups:    co.proto.Plan(co.cfg.protocolOptions(n, co.job.Config().LogMessages), traffic),
		RequestAt: co.k.Now(),
		Records:   make([]CkptRecord, n),
	}
	co.turn, co.ready, co.saved = 0, 0, 0
	co.bus.Metrics().Counter(obs.LayerCR, "cycles").Inc()
	co.bus.Metrics().Counter(obs.LayerCR, co.cyclesName).Inc()
	if co.bus.HasSinks() {
		co.emit(obs.KindRequest, 0, fmt.Sprintf("cycle %d%s, groups %v", co.cycle, co.tag, co.cur.Groups))
	}
	groupOf := make([]int, n)
	for r := range groupOf {
		groupOf[r] = -1
	}
	for gi, g := range co.cur.Groups {
		for _, r := range g {
			groupOf[r] = gi
		}
	}
	co.broadcast(msgCkptRequest{rep: co.cur, groupOf: groupOf})
	if !co.proto.Blocking() {
		// Uncoordinated: no turns and no readiness barrier. Every controller
		// heads for its own safe point on the request (interrupting in
		// signal mode, at its own next boundary in polled mode) and reports
		// msgSaved when its write lands.
		return
	}
	if !co.polled() {
		// Signal mode: group 0 is interrupted immediately; other groups
		// keep computing (passive coordination).
		co.startTurn(0)
	}
	// Polled mode: all ranks quiesce at boundaries first (the controllers
	// self-request safe points on msgCkptRequest); turn 0 begins once every
	// rank has reported ready.
}

func (co *Coordinator) broadcast(payload any) {
	for i := 0; i < co.job.Size(); i++ {
		co.send(i, payload)
	}
}

func (co *Coordinator) sendGroup(group int, payload any) {
	for _, r := range co.cur.Groups[group] {
		co.send(r, payload)
	}
}

// send delivers a control message to a rank's endpoint. The rank set is
// fixed at job creation, so a send failure is a simulator invariant
// violation and aborts the run.
func (co *Coordinator) send(rank int, payload any) {
	if err := co.ep.SendOOB(rank, payload); err != nil {
		co.k.Fail(fmt.Errorf("cr: coordinator sending to rank %d: %w", rank, err))
	}
}

// stale reports whether a message names a cycle that aborted or completed.
func (co *Coordinator) stale(cycle int) bool {
	return co.cur == nil || cycle != co.cur.Cycle
}

func (co *Coordinator) onMsg(src int, payload any) {
	switch m := payload.(type) {
	case msgReady:
		if co.stale(m.cycle) {
			return
		}
		co.ready++
		if co.polled() {
			// Global quiesce barrier: start the first group only when
			// every rank is stopped at a boundary. startTurn resets the
			// count, and no rank reports ready twice in a cycle.
			if co.ready == co.job.Size() {
				co.startTurn(0)
			}
			return
		}
		if co.ready == len(co.cur.Groups[co.turn]) {
			co.sendGroup(co.turn, msgGo{cycle: co.cycle, group: co.turn})
		}
	case msgSaved:
		if co.stale(m.cycle) {
			return
		}
		co.saved++
		if !co.proto.Blocking() {
			// Uncoordinated: there is no turn order; the cycle closes when
			// the last independent write lands. Each snapshot already became
			// durable (per-rank) when its write completed.
			if co.saved == co.job.Size() {
				co.finishCycle()
			}
			return
		}
		if co.saved == len(co.cur.Groups[co.turn]) {
			co.emit(obs.KindGroupDone, int64(co.turn), "")
			co.broadcast(msgGroupDone{cycle: co.cycle, group: co.turn})
			co.turn++
			if co.turn < len(co.cur.Groups) {
				co.startTurn(co.turn)
			} else {
				co.finishCycle()
			}
		}
	case msgWriteFailed:
		co.onWriteFailed(m)
	default:
		co.k.Fail(fmt.Errorf("cr: coordinator got unexpected message %T from %d", payload, src))
	}
}

// startTurn announces a group's turn; in polled mode its members are already
// quiesced and receive their go immediately.
func (co *Coordinator) startTurn(turn int) {
	co.ready, co.saved = 0, 0
	if co.bus.HasSinks() {
		co.emit(obs.KindTurn, 0, fmt.Sprintf("group %d %v", turn, co.cur.Groups[turn]))
	}
	co.broadcast(msgTurn{cycle: co.cycle, group: turn})
	if co.polled() {
		co.sendGroup(turn, msgGo{cycle: co.cycle, group: turn})
	}
}

// markComplete commits an epoch's global checkpoint; a failure means the
// protocol lost or corrupted a snapshot and the simulation result would be
// wrong. MarkComplete re-verifies every member snapshot, so this is the
// commit point of the two-phase protocol. The commit also gates on
// replication degree — every rank's image must hold its full copy set at
// some tier — but never on a drain to central storage, which continues in
// the background.
func (co *Coordinator) markComplete(epoch int) {
	if err := co.tiers.CheckCommit(epoch); err != nil {
		co.k.Fail(err)
		return
	}
	if err := co.snaps.MarkComplete(epoch); err != nil {
		co.k.Fail(err)
	}
}

// onWriteFailed aborts the in-progress cycle after a member's snapshot write
// failed: the partial epoch is discarded, every rank rolls back, and the
// checkpoint is retried after a capped exponential backoff, bounded by
// maxCycleRetries consecutive attempts.
func (co *Coordinator) onWriteFailed(m msgWriteFailed) {
	if co.stale(m.cycle) {
		return
	}
	target := co.epoch + 1
	co.aborts++
	co.cycleRetries++
	co.bus.Metrics().Counter(obs.LayerCR, "cycle_aborts").Inc()
	if co.bus.HasSinks() {
		co.emit(obs.KindCycleAbort, 0, fmt.Sprintf("cycle %d epoch %d: rank %d write failed", co.cycle, target, m.rank))
	}
	if err := co.snaps.Discard(target); err != nil {
		co.k.Fail(err)
		return
	}
	co.broadcast(msgAbort{cycle: co.cycle})
	co.cur = nil // an aborted cycle leaves no report
	if co.cycleRetries > maxCycleRetries {
		co.k.Fail(fmt.Errorf("cr: checkpoint epoch %d aborted %d consecutive times; giving up",
			target, co.cycleRetries))
		return
	}
	backoff := writeRetryBackoff(co.cycleRetries)
	if co.bus.HasSinks() {
		co.emit(obs.KindCycleRetry, 0, fmt.Sprintf("epoch %d attempt %d in %v", target, co.cycleRetries+1, backoff))
	}
	co.k.After(backoff, co.RequestCheckpoint)
}

func (co *Coordinator) finishCycle() {
	co.emit(obs.KindCycleDone, int64(co.cycle), co.tag)
	co.broadcast(msgCycleDone{cycle: co.cycle})
	co.epoch++
	co.cycleRetries = 0
	rep := co.cur
	rep.DoneAt, rep.epoch = co.k.Now(), co.epoch
	if co.proto.Blocking() {
		co.markComplete(co.epoch)
	}
	// Non-blocking protocols have no global commit: every member snapshot
	// was marked durable per rank as its own write completed.
	co.reports = append(co.reports, rep)
	co.cur = nil
	if co.OnCycleDone != nil {
		co.OnCycleDone(rep)
	}
}
