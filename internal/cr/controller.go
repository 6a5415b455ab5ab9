package cr

import (
	"errors"
	"fmt"

	"gbcr/internal/blcr"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// Controller is the local C/R controller embedded in one MPI process. It
// implements mpi.CRHooks (safe points and the send gate) and reacts to
// coordinator messages immediately on arrival, like the controller thread in
// the MVAPICH2 framework.
//
// The paper's checkpoint procedure (Section 3: Initial Synchronization,
// Pre-checkpoint Coordination, Local Checkpointing, Post-checkpoint
// Coordination) is written once per execution context — AtSafePoint parks the
// application process through it, checkpointFinishedRank runs it from kernel
// events for a rank that has no process left to park — and both are built
// from the same steps: newRecord, teardownBusy, takeSnapshot, writeFailed,
// commit, resume. Each asks the protocol whether phases 1, 2 and 4 exist.
type Controller struct {
	co   *Coordinator
	rank *mpi.Rank

	// FootprintFn supplies the process's memory footprint at snapshot time;
	// workloads install it (HPL's footprint shrinks over the run). Nil
	// means an empty image.
	FootprintFn func() int64

	epoch      int      // completed checkpoints
	lastCkptAt sim.Time // when the previous snapshot was taken (incremental)

	// Cycle state.
	cycleActive bool
	rep         *CycleReport // the cycle's; this rank writes only its own slot
	baseEpoch   int
	groupOf     []int // rank → group, -1 in none; the coordinator's, shared read-only by every controller
	myGroup     int
	turnStarted []bool
	groupDone   []bool
	mySaved     bool
	activating  bool
	inCkpt      bool
	goFlag      bool
	resumeFlag  bool
	abortFlag   bool

	// finishedStep advances a finished rank through phases 1 and 2; msgGo and
	// connection events run it. Nil outside those phases: it is cleared when
	// the teardown completes and when the cycle aborts.
	finishedStep func()

	// write is this cycle's snapshot write once started; an abort cancels it,
	// so a discarded epoch's image never lands at a tier the failure spared.
	write *storage.Transfer

	// bufStart snapshots the rank's buffering counters at cycle start so
	// endCycle can attribute the cycle's deferral activity to its record.
	bufStart mpi.RankStats
}

// attach makes c rank's controller and returns it.
func (c *Controller) attach(co *Coordinator, rank *mpi.Rank) *Controller {
	*c = Controller{co: co, rank: rank}
	rank.SetHooks(c)
	rank.SetIndependentCkpt(!co.proto.Blocking())
	ep := rank.Endpoint()
	ep.AcceptConn = c.acceptConn
	ep.OnOOB = c.onOOB
	return c
}

// ConnMeta tags outgoing connection requests with the current epoch.
func (c *Controller) ConnMeta() int64 { return int64(c.epoch) }

// ConnChanged re-evaluates connection states during checkpoint teardown: it
// wakes the parked process, or steps a finished rank.
func (c *Controller) ConnChanged(peer int) {
	if !c.inCkpt {
		return
	}
	c.unparkSelf()
	if c.finishedStep != nil {
		c.finishedStep()
	}
}

// SendAllowed implements the consistency gate (Section 3.2): a group that
// has taken its checkpoint must not exchange messages with a group that has
// not. Blocked traffic lands in the MPI outbox (message/request buffering).
func (c *Controller) SendAllowed(dst int) bool {
	if !c.cycleActive {
		return true
	}
	if c.inCkpt {
		// The process is stopped for its own checkpoint: nothing is posted
		// until it resumes.
		return false
	}
	if !c.co.proto.Blocking() {
		// Uncoordinated: no cross-group consistency gate — in-flight
		// messages are covered by the sender log, not by blocking.
		return true
	}
	g := c.groupOf[dst]
	if g < 0 {
		return true
	}
	if g == c.myGroup {
		// Same schedule; the connection layer quiesces intra-group traffic
		// during the actual checkpoint.
		return true
	}
	if c.turnStarted[g] && !c.groupDone[g] {
		// That group is checkpointing right now.
		return false
	}
	return c.groupDone[g] == c.mySaved
}

// acceptConn epoch-gates passive connection acceptance: reconnection across
// the recovery line is deferred until both sides have checkpointed.
func (c *Controller) acceptConn(peer int, meta int64) bool {
	if !c.cycleActive {
		return true
	}
	if c.inCkpt {
		return false
	}
	if !c.co.proto.Blocking() {
		// Uncoordinated: connections never tear down, so there is no
		// recovery line to gate reconnection against.
		return true
	}
	peerView := c.baseEpoch
	if g := c.groupOf[peer]; g >= 0 && c.groupDone[g] {
		peerView++
	}
	return peerView == c.epoch
}

// onOOB handles coordinator traffic immediately on arrival.
func (c *Controller) onOOB(src int, payload any) {
	switch m := payload.(type) {
	case msgCkptRequest:
		c.startCycle(m)
	case msgTurn:
		c.onTurn(m)
	case msgGo:
		if m.group == c.myGroup {
			c.goFlag = true
			c.unparkSelf()
			if c.finishedStep != nil {
				c.finishedStep()
			}
		}
	case msgGroupDone:
		c.onGroupDone(m)
	case msgCycleDone:
		c.endCycle()
	case msgAbort:
		c.onAbort(m)
	default:
		c.co.k.Fail(fmt.Errorf("cr: rank %d's controller got unexpected message %T from %d", c.rank.World(), payload, src))
	}
}

// emit records a cr-layer event on this rank's track. Begin/End pairs with
// the same what render as duration spans in the Chrome export. val is what a
// structured kind's text is rendered from (obs.Event.Text), 0 for the rest.
func (c *Controller) emit(t obs.Type, what obs.Kind, val int64) {
	c.co.bus.Emit(obs.Event{At: c.co.k.Now(), Rank: c.rank.World(), Layer: obs.LayerCR,
		Type: t, What: what, Val: val})
}

func (c *Controller) unparkSelf() {
	if p := c.rank.Proc(); p != nil {
		p.Unpark()
	}
}

func (c *Controller) startCycle(m msgCkptRequest) {
	c.cycleActive = true
	c.bufStart = c.rank.Stats()
	c.rep = m.rep
	c.baseEpoch = c.epoch
	c.groupOf = m.groupOf
	c.myGroup = m.groupOf[c.rank.World()]
	c.turnStarted = make([]bool, len(m.rep.Groups))
	c.groupDone = make([]bool, len(m.rep.Groups))
	c.mySaved = false
	c.goFlag = false
	c.resumeFlag = false
	c.abortFlag = false
	blocking := c.co.proto.Blocking()
	if blocking && c.co.cfg.HelperEnabled {
		// Passive coordination: bound protocol-processing delay while the
		// application computes (Section 4.4).
		c.rank.SetHelper(true)
	}
	// Uncoordinated: no helper, no turns, no quiesce barrier — the rank heads
	// for its own safe point immediately and checkpoints alone. Polled
	// (restartable) mode: every rank quiesces at its next boundary before any
	// group writes. Boundary-only safe points cannot interrupt a blocked
	// receive, so the per-group stop of the signal protocol could deadlock
	// against the consistency gate; a global quiesce followed by staggered
	// group writes is the sound equivalent (the SCR-style application-level
	// discipline). Signal mode under a blocking protocol stops on msgTurn.
	if !blocking || c.co.polled() {
		c.stop()
	}
}

func (c *Controller) onTurn(m msgTurn) {
	c.turnStarted[m.group] = true
	if m.group == c.myGroup && !c.co.polled() {
		c.stop() // polled mode already stopped at cycle start
	}
}

// stop heads the rank for its checkpoint. A process that already sits in
// finalize is checkpointed inline from kernel events; a running one is asked
// for a safe point — at its next boundary in polled mode, by interrupt (the
// BLCR signal) otherwise — and runs AtSafePoint there.
func (c *Controller) stop() {
	switch {
	case c.rank.Finished():
		c.checkpointFinishedRank()
	case c.co.polled():
		c.activating = true
		c.rank.RequestSafePointPolled()
	default:
		c.activating = true
		c.rank.RequestSafePoint()
	}
}

func (c *Controller) onGroupDone(m msgGroupDone) {
	c.groupDone[m.group] = true
	if m.group == c.myGroup {
		c.resumeFlag = true
		c.unparkSelf()
	}
	c.releaseAligned()
}

// onAbort cancels this rank's participation in an aborted cycle: the
// optimistic epoch increment rolls back (the written snapshot was discarded
// with the epoch), stopped processes wake out of their phase waits via
// abortFlag, and deferral gates reopen. The retried cycle arrives as a fresh
// msgCkptRequest.
func (c *Controller) onAbort(m msgAbort) {
	if !c.cycleActive || m.cycle != c.rep.Cycle {
		return
	}
	c.emit(obs.Instant, obs.KindCycleAbort, 0)
	if c.mySaved {
		c.epoch--
		c.mySaved = false
	}
	c.abortFlag = true
	c.goFlag = false
	c.cycleActive = false
	c.finishedStep = nil
	if c.rank.Finished() {
		c.inCkpt = false // no process will wake to run abortReturn
	}
	c.rank.SetHelper(false)
	if c.write != nil {
		c.write.Cancel(fmt.Errorf("cr: cycle %d aborted", m.cycle)) // a no-op once finished
	}
	c.unparkSelf()
	c.releaseAligned()
}

func (c *Controller) endCycle() {
	c.cycleActive = false
	c.rank.SetHelper(false)
	c.releaseAligned()
	// File the cycle's deferral activity into this rank's record, which its
	// process may not have resumed yet: resume touches only ResumeAt.
	now, rec := c.rank.Stats(), &c.rep.Records[c.rank.World()]
	rec.BufferedMsgs = now.MsgsBuffered - c.bufStart.MsgsBuffered
	rec.BufferedReqs = now.ReqsBuffered - c.bufStart.ReqsBuffered
	rec.BufferedBytes = now.BytesBuffered - c.bufStart.BytesBuffered
	m := c.co.bus.Metrics()
	m.Counter(obs.LayerCR, "buffered_msgs").Add(int64(rec.BufferedMsgs))
	m.Counter(obs.LayerCR, "buffered_reqs").Add(int64(rec.BufferedReqs))
	m.Counter(obs.LayerCR, "buffered_bytes").Add(rec.BufferedBytes)
}

// releaseAligned re-attempts deferred sends and deferred connection requests
// whose gates may have opened.
func (c *Controller) releaseAligned() {
	n := c.co.job.Size()
	for dst := 0; dst < n; dst++ {
		if dst != c.rank.World() && c.SendAllowed(dst) {
			c.rank.ReleaseDst(dst)
		}
	}
	c.rank.Endpoint().Reexamine()
}

// phase reports a per-rank protocol phase entry to the coordinator's
// PhaseHook (fault-injection targeting); a no-op without a hook.
func (c *Controller) phase(p protocol.Phase) {
	if c.co.PhaseHook != nil {
		c.co.PhaseHook(c.rank.World(), p, c.co.epoch+1)
	}
}

// abortReturn is the common exit for a member whose cycle aborted while it
// was stopped: execution resumes, and its record goes with the aborted
// cycle's report.
func (c *Controller) abortReturn() {
	c.inCkpt = false
	c.emit(obs.Instant, obs.KindAbortResume, 0)
	c.releaseAligned()
}

// AtSafePoint is the member's checkpoint procedure in application context:
// the four phases of the checkpointing cycle, each wait a park of the
// process. A non-blocking protocol has no phases 1, 2 and 4 — the rank
// freezes, writes, and resumes alone; consistency with the rest of the job
// then comes from sender-based message logging at the MPI layer.
func (c *Controller) AtSafePoint(e *mpi.Env) {
	if !c.activating {
		return // spurious (stale interrupt)
	}
	c.activating = false
	c.inCkpt = true
	p, k := e.Proc(), c.co.k
	blocking := c.co.proto.Blocking()
	c.emit(obs.Instant, obs.KindSafePoint, 0)
	rec := c.newRecord()

	if blocking {
		// Phase 1: Initial Synchronization — report readiness, wait for the
		// whole group to stop.
		c.phase(protocol.PhaseSync)
		c.emit(obs.Begin, obs.KindCkptSync, 0)
		c.sendCo(msgReady{cycle: c.rep.Cycle, rank: c.rank.World()})
		ok := c.waitFlag(p, &c.goFlag, "cr: initial synchronization")
		rec.GoAt = k.Now()
		c.emit(obs.End, obs.KindCkptSync, 0)
		if !ok {
			c.abortReturn()
			return
		}

		// Phase 2: Pre-checkpoint Coordination — flush in-transit messages and
		// tear down all connections (passive peers answer via CM thread and
		// helper-driven progress).
		c.phase(protocol.PhaseTeardown)
		c.emit(obs.Begin, obs.KindCkptTeardown, int64(c.rank.Endpoint().NumConns()))
		for c.teardownBusy() {
			p.Park("cr: connection teardown")
		}
		rec.TeardownDone = k.Now()
		c.emit(obs.End, obs.KindCkptTeardown, 0)
		if c.abortFlag {
			c.abortReturn()
			return
		}
	}

	// Phase 3: Local Checkpointing — BLCR-style snapshot written to the
	// shared storage system, after the fixed local setup cost (process
	// freeze, file creation).
	if c.co.cfg.LocalSetup > 0 {
		p.Sleep(c.co.cfg.LocalSetup)
	}
	snap := c.takeSnapshot(rec)
	if snap == nil {
		return
	}
	c.emit(obs.Begin, obs.KindCkptWrite, snap.Size())
	for attempt := 1; ; attempt++ {
		tr, err := c.startWrite(snap)
		if err == nil {
			tr.Wait(p)
			err = tr.Err()
		}
		if c.abortFlag || c.rep.Cycle != rec.Cycle {
			// The cycle aborted (another member failed) while our write was in
			// flight; the snapshot belongs to the discarded epoch. A retried
			// cycle that already began has cleared abortFlag: hence the
			// comparison.
			c.emit(obs.End, obs.KindCkptWrite, 0)
			c.abortReturn()
			return
		}
		if err == nil {
			break
		}
		if blocking {
			c.emit(obs.End, obs.KindCkptWrite, 0) // the member's write phase ends with the attempt
		}
		backoff, ok := c.writeFailed(err, attempt)
		if !ok {
			return
		}
		if blocking {
			// The coordinator retries the whole cycle: wait here for its abort
			// to arrive before resuming execution.
			for !c.abortFlag {
				p.Park("cr: awaiting cycle abort")
			}
			c.abortReturn()
			return
		}
		p.Sleep(backoff)
	}
	rec.WriteEnd = k.Now()
	c.emit(obs.End, obs.KindCkptWrite, 0)
	c.commit(snap)

	// Phase 4: Post-checkpoint Coordination — wait for the group to finish;
	// connections rebuild on demand as execution resumes.
	c.phase(protocol.PhaseResume)
	if blocking {
		c.emit(obs.Begin, obs.KindCkptResumeWait, 0)
		ok := c.waitFlag(p, &c.resumeFlag, "cr: post-checkpoint coordination")
		c.emit(obs.End, obs.KindCkptResumeWait, 0)
		if !ok {
			// Aborted after our save: onAbort already rolled back the epoch and
			// dropped mySaved.
			c.abortReturn()
			return
		}
	}
	c.resume(rec)
}

// checkpointFinishedRank is the member's checkpoint procedure in event
// context, for a rank whose body already returned: the process is idle in
// finalize and cannot park, so each wait of AtSafePoint becomes the event
// that ends it — msgGo and connection events through finishedStep, one timer
// for the local setup, the transfer's completion. With no execution to
// resume, the rank does not wait for its group: it resumes as its write ends.
func (c *Controller) checkpointFinishedRank() {
	k := c.co.k
	blocking := c.co.proto.Blocking()
	c.inCkpt = true
	rec := c.newRecord()
	// onAbort deactivates the cycle before it cancels the write, so every
	// continuation below sees an abort as a stale cycle and stands down.
	stale := func() bool { return c.rep.Cycle != rec.Cycle || !c.cycleActive }

	// Phase 3, entered once phases 1 and 2 (if the protocol has them) are done.
	var write func(snap *blcr.Snapshot, attempt int)
	write = func(snap *blcr.Snapshot, attempt int) {
		tr, err := c.startWrite(snap)
		if err != nil {
			k.Fail(fmt.Errorf("cr: rank %d starting snapshot write: %w", c.rank.World(), err))
			return
		}
		tr.OnDone(func() {
			if stale() {
				return // the snapshot belongs to the discarded epoch
			}
			if err := tr.Err(); err != nil {
				if backoff, ok := c.writeFailed(err, attempt); ok && !blocking {
					k.After(backoff, func() { write(snap, attempt+1) })
				}
				return // blocking: the coordinator's abort ends this attempt
			}
			rec.WriteEnd = k.Now()
			c.commit(snap)
			c.phase(protocol.PhaseResume)
			c.resume(rec)
		})
	}
	localCheckpoint := func() {
		k.After(c.co.cfg.LocalSetup, func() {
			if stale() {
				return // the cycle aborted while the local setup ran
			}
			if snap := c.takeSnapshot(rec); snap != nil {
				write(snap, 1)
			}
		})
	}
	if !blocking {
		localCheckpoint()
		return
	}

	// Phases 1 and 2: report readiness, then on msgGo disconnect and re-check
	// on each connection event until every handshake has settled.
	c.phase(protocol.PhaseSync)
	c.sendCo(msgReady{cycle: c.rep.Cycle, rank: c.rank.World()})
	c.finishedStep = func() {
		if !c.goFlag {
			return
		}
		if rec.GoAt == 0 {
			rec.GoAt = k.Now() // the first run past the gate is msgGo's
			c.phase(protocol.PhaseTeardown)
		}
		if c.teardownBusy() {
			return
		}
		c.finishedStep = nil
		rec.TeardownDone = k.Now()
		localCheckpoint()
	}
}

// newRecord opens the rank's record of this cycle, its slot of the cycle's
// report, at its safe point. Phases the protocol lacks collapse to that
// instant.
func (c *Controller) newRecord() *CkptRecord {
	now := c.co.k.Now()
	rec := &c.rep.Records[c.rank.World()]
	*rec = CkptRecord{Cycle: c.rep.Cycle, Group: c.myGroup, SafePointAt: now}
	if !c.co.proto.Blocking() {
		rec.GoAt, rec.TeardownDone = now, now
	}
	return rec
}

// teardownBusy drives every established connection into the
// flush-and-disconnect protocol and reports whether any handshake has yet to
// settle. Half-open outgoing connections (deferred by an epoch-mismatched
// peer) are left alone: they carry no data and complete after the recovery
// line passes.
func (c *Controller) teardownBusy() bool {
	ep := c.rank.Endpoint()
	busy := false
	ep.EachConn(func(peer int, state ib.ConnState) {
		switch state {
		case ib.StateConnected:
			ep.Disconnect(peer)
			busy = true
		case ib.StateAccepting, ib.StateDraining, ib.StateDisconnecting:
			busy = true
		}
	})
	return busy
}

// takeSnapshot captures the process image and opens the record's write
// phase. A capture failure fails the run and returns nil.
func (c *Controller) takeSnapshot(rec *CkptRecord) *blcr.Snapshot {
	var app, lib []byte
	if c.co.polled() {
		var err error
		if app, err = c.co.capture(c.rank.World()); err != nil {
			err = fmt.Errorf("capturing application state: %w", err)
		} else {
			lib, err = c.rank.CaptureLibState()
		}
		if err != nil {
			c.co.k.Fail(fmt.Errorf("cr: rank %d: %w", c.rank.World(), err))
			return nil
		}
	}
	var fp int64
	if c.FootprintFn != nil {
		fp = c.FootprintFn()
	}
	if c.co.cfg.Incremental && c.epoch > 0 {
		fp = c.incrementalSize(fp)
	}
	now := c.co.k.Now()
	c.lastCkptAt = now
	rec.Footprint, rec.WriteStart = fp, now
	c.phase(protocol.PhaseWrite)
	return blcr.New(c.rank.World(), c.epoch+1, now, fp, app, lib)
}

const (
	// incrementalFloor is the minimum fraction of the full footprint an
	// incremental snapshot writes (page-table metadata and always-hot pages).
	incrementalFloor = 0.05
	// dirtyBW is the rate at which a running process dirties memory, in
	// bytes per second of execution (1 MB/s: ~50 MB between the incremental
	// extension's checkpoints).
	dirtyBW = 1 << 20
)

// incrementalSize models the dirty-page image written by an incremental
// checkpoint: a floor of always-written metadata plus memory dirtied since
// the previous snapshot, capped at the full footprint.
func (c *Controller) incrementalSize(full int64) int64 {
	elapsed := (c.co.k.Now() - c.lastCkptAt).Seconds()
	dirty := int64(incrementalFloor*float64(full) + dirtyBW*elapsed)
	if dirty > full {
		return full
	}
	return dirty
}

// startWrite begins storing snap through the storage stack, acknowledging at
// its fastest durable tier, and remembers the transfer so an abort can cancel
// it. Application-context callers Wait on the result.
func (c *Controller) startWrite(snap *blcr.Snapshot) (tr *storage.Transfer, err error) {
	tr, err = c.co.tiers.StartWrite(snap.Epoch, snap.Rank, snap.Size())
	c.write = tr
	return tr, err
}

// writeFailed classifies a failed snapshot write, attempt counting from 1.
// Anything but a storage outage is a simulator error and fails the run (ok
// false). Who retries an outage is the protocol's commit rule: a blocking
// protocol hands the cycle back to the coordinator for a group-wide abort and
// retry, and the member awaits that abort; otherwise there is no cycle-wide
// rollback to coordinate, so the rank retries alone after backoff — the same
// capped backoff, bounded by the same maxCycleRetries, the coordinator
// applies cycle-wide.
func (c *Controller) writeFailed(err error, attempt int) (backoff sim.Time, ok bool) {
	world := c.rank.World()
	blocking := c.co.proto.Blocking()
	switch {
	case !errors.Is(err, storage.ErrUnavailable):
		c.co.k.Fail(fmt.Errorf("cr: rank %d writing snapshot: %w", world, err))
		return 0, false
	case !blocking && attempt > maxCycleRetries:
		c.co.k.Fail(fmt.Errorf("cr: rank %d snapshot write failed %d consecutive times; giving up",
			world, attempt))
		return 0, false
	}
	c.co.bus.Emit(obs.Event{At: c.co.k.Now(), Rank: world, Layer: obs.LayerCR,
		Type: obs.Instant, What: obs.KindWriteFailed, Detail: err.Error()})
	if blocking {
		c.sendCo(msgWriteFailed{cycle: c.rep.Cycle, rank: world})
		return 0, true
	}
	return writeRetryBackoff(attempt), true
}

// commit makes a written snapshot this rank's checkpoint: the epoch advances
// (optimistically under a blocking protocol — onAbort rolls it back), the
// image is archived, and the coordinator is told. A protocol without a global
// commit marks the image durable per rank here: it is a restart candidate as
// soon as its own write completed. An archive error means the protocol
// double-checkpointed this rank, and fails the run.
func (c *Controller) commit(snap *blcr.Snapshot) {
	c.epoch++
	c.mySaved = true
	err := c.co.snaps.Put(snap)
	if err == nil && !c.co.proto.Blocking() {
		err = c.co.snaps.SetRankDurable(snap.Epoch, snap.Rank)
	}
	if err != nil {
		c.co.k.Fail(err)
	}
	c.sendCo(msgSaved{cycle: c.rep.Cycle, rank: c.rank.World()})
}

// resume ends the rank's downtime and completes its record — the accounting
// of record for the cycle, mirrored into the bus registry (a no-op without a
// bus) for -metrics-json export.
func (c *Controller) resume(rec *CkptRecord) {
	c.inCkpt = false
	rec.ResumeAt = c.co.k.Now()
	c.emit(obs.Instant, obs.KindResume, int64(rec.Individual()))
	m := c.co.bus.Metrics()
	m.Histogram(obs.LayerCR, "individual").Observe(rec.Individual())
	m.Histogram(obs.LayerCR, "storage_write").Observe(rec.StorageTime())
	m.Histogram(obs.LayerCR, "sync").Observe(rec.GoAt - rec.SafePointAt)
	m.Histogram(obs.LayerCR, "teardown").Observe(rec.TeardownDone - rec.GoAt)
	m.Counter(obs.LayerCR, "snapshots").Inc()
	m.Counter(obs.LayerCR, "snapshot_bytes").Add(rec.Footprint)
	c.releaseAligned()
}

// sendCo reports to the coordinator. The coordinator endpoint is created
// with the job, so a send failure is a simulator invariant violation.
func (c *Controller) sendCo(payload any) {
	if err := c.rank.Endpoint().SendOOB(CoordinatorID, payload); err != nil {
		c.co.k.Fail(fmt.Errorf("cr: rank %d reporting to coordinator: %w", c.rank.World(), err))
	}
}

// waitFlag parks the application process until the flag is set by a
// coordinator message, or the cycle aborts. It returns false on abort.
func (c *Controller) waitFlag(p *sim.Proc, flag *bool, reason string) bool {
	for !*flag && !c.abortFlag {
		p.Park(reason)
	}
	return !c.abortFlag
}
