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
type Controller struct {
	co   *Coordinator
	rank *mpi.Rank

	// FootprintFn supplies the process's memory footprint at snapshot time;
	// workloads install it (HPL's footprint shrinks over the run). Nil
	// means Config.DefaultFootprint.
	FootprintFn func() int64
	// CaptureFn serializes application state for functional restart.
	CaptureFn func() ([]byte, error)

	epoch      int      // completed checkpoints
	lastCkptAt sim.Time // when the previous snapshot was taken (incremental)

	// Cycle state.
	cycleActive bool
	cycle       int
	baseEpoch   int
	groups      [][]int
	groupOf     map[int]int
	myGroup     int
	turnStarted []bool
	groupDone   []bool
	mySaved     bool
	activating  bool
	inCkpt      bool
	goFlag      bool
	resumeFlag  bool
	abortFlag   bool

	// finishedStep drives the inline checkpoint of a rank whose body
	// already returned; nil otherwise.
	finishedStep func()

	// write is this cycle's snapshot write once started; an abort cancels it,
	// so a discarded epoch's image never lands at a tier the failure spared.
	write *storage.Transfer

	// bufStart snapshots the rank's buffering counters at cycle start so
	// endCycle can attribute the cycle's deferral activity to its record;
	// the deltas are kept per cycle and folded into the records when the
	// coordinator assembles reports.
	bufStart   mpi.RankStats
	bufByCycle map[int]bufDelta

	records []CkptRecord
}

func newController(co *Coordinator, rank *mpi.Rank) *Controller {
	c := &Controller{co: co, rank: rank, bufByCycle: make(map[int]bufDelta)}
	rank.SetHooks(c)
	rank.SetIndependentCkpt(!co.proto.Blocking())
	ep := rank.Endpoint()
	ep.AcceptConn = c.acceptConn
	ep.OnOOBImmediate = c.onOOB
	rank.ConnUpHook = c.onConnEvent
	rank.ConnDownHook = c.onConnEvent
	return c
}

// Epoch returns the number of checkpoints this process has completed.
func (c *Controller) Epoch() int { return c.epoch }

// Records returns the per-cycle participation records.
func (c *Controller) Records() []CkptRecord { return c.records }

// Rank returns the MPI rank this controller is attached to.
func (c *Controller) Rank() *mpi.Rank { return c.rank }

// ConnMeta tags outgoing connection requests with the current epoch.
func (c *Controller) ConnMeta() int64 { return int64(c.epoch) }

// onConnEvent wakes the process during checkpoint teardown so it can
// re-evaluate connection states.
func (c *Controller) onConnEvent(peer int) {
	if c.inCkpt && c.rank.Proc() != nil {
		c.rank.Proc().Unpark()
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
	g, ok := c.groupOf[dst]
	if !ok {
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
	if g, ok := c.groupOf[peer]; ok && c.groupDone[g] {
		peerView++
	}
	return peerView == c.epoch
}

// onOOB handles coordinator traffic immediately on arrival.
func (c *Controller) onOOB(src int, payload any) bool {
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
		return false // not a checkpoint message; deliver normally
	}
	return true
}

// emit records a cr-layer event on this rank's track. Begin/End pairs with
// the same what render as duration spans in the Chrome export.
func (c *Controller) emit(t obs.Type, what, detail string) {
	c.co.bus.Emit(obs.Event{At: c.co.k.Now(), Rank: c.rank.World(), Layer: obs.LayerCR,
		Type: t, What: what, Detail: detail})
}

// observeRecord feeds a completed per-rank record into the cycle's registry —
// the authoritative source for the CycleReport summary numbers — and mirrors
// the same observations onto the attached bus for -metrics-json export.
func (c *Controller) observeRecord(rec CkptRecord) {
	for _, m := range []*obs.Metrics{c.co.metricsFor(rec.Cycle), c.co.bus.Metrics()} {
		m.Histogram(obs.LayerCR, "individual").Observe(rec.Individual())
		m.Histogram(obs.LayerCR, "storage_write").Observe(rec.StorageTime())
		m.Histogram(obs.LayerCR, "sync").Observe(rec.GoAt - rec.SafePointAt)
		m.Histogram(obs.LayerCR, "teardown").Observe(rec.TeardownDone - rec.GoAt)
		m.Counter(obs.LayerCR, "snapshots").Inc()
		m.Counter(obs.LayerCR, "snapshot_bytes").Add(rec.Footprint)
	}
}

func (c *Controller) unparkSelf() {
	if p := c.rank.Proc(); p != nil {
		p.Unpark()
	}
}

func (c *Controller) startCycle(m msgCkptRequest) {
	c.cycleActive = true
	c.bufStart = c.rank.Stats()
	c.cycle = m.cycle
	c.baseEpoch = c.epoch
	c.groups = m.groups
	c.groupOf = make(map[int]int)
	c.myGroup = -1
	for gi, g := range m.groups {
		for _, r := range g {
			c.groupOf[r] = gi
			if r == c.rank.World() {
				c.myGroup = gi
			}
		}
	}
	c.turnStarted = make([]bool, len(m.groups))
	c.groupDone = make([]bool, len(m.groups))
	c.mySaved = false
	c.goFlag = false
	c.resumeFlag = false
	c.abortFlag = false
	if !c.co.proto.Blocking() {
		// Uncoordinated: no helper, no turns, no quiesce barrier. The rank
		// heads for its own safe point immediately — interrupting in signal
		// mode, at its own next boundary in polled mode — and checkpoints
		// alone.
		if c.rank.Finished() {
			c.uncoordFinishedRank()
		} else {
			c.activating = true
			if c.co.cfg.Polled {
				c.rank.RequestSafePointPolled()
			} else {
				c.rank.RequestSafePoint()
			}
		}
		return
	}
	if c.co.cfg.HelperEnabled {
		// Passive coordination: bound protocol-processing delay while the
		// application computes (Section 4.4).
		c.rank.SetHelper(true)
	}
	if c.co.cfg.Polled {
		// Polled (restartable) mode: every rank quiesces at its next
		// boundary before any group writes. Boundary-only safe points
		// cannot interrupt a blocked receive, so the per-group stop of the
		// signal protocol could deadlock against the consistency gate; a
		// global quiesce followed by staggered group writes is the sound
		// equivalent (the SCR-style application-level discipline).
		if c.rank.Finished() {
			c.checkpointFinishedRank()
		} else {
			c.activating = true
			c.rank.RequestSafePointPolled()
		}
	}
}

func (c *Controller) onTurn(m msgTurn) {
	c.turnStarted[m.group] = true
	if m.group != c.myGroup || c.co.cfg.Polled {
		return // polled mode already requested safe points at cycle start
	}
	if c.rank.Finished() {
		// The process already sits in finalize; checkpoint it inline with
		// an empty execution state.
		c.checkpointFinishedRank()
		return
	}
	c.activating = true
	c.rank.RequestSafePoint()
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
	if m.cycle != c.cycle || !c.cycleActive {
		return
	}
	c.emit(obs.Instant, "cycle-abort", "")
	if c.mySaved {
		c.epoch--
		c.mySaved = false
	}
	c.abortFlag = true
	c.goFlag = false
	c.cycleActive = false
	c.finishedStep = nil
	c.rank.SetHelper(false)
	if c.write != nil {
		c.write.Cancel(fmt.Errorf("cr: cycle %d aborted", m.cycle)) // a no-op once finished
	}
	c.unparkSelf()
	c.releaseAligned()
}

func (c *Controller) endCycle() {
	c.cycleActive = false
	c.finishedStep = nil
	c.rank.SetHelper(false)
	c.releaseAligned()
	// Record the cycle's deferral activity; the coordinator folds it into
	// the cycle report (this rank's own record may not exist yet — its
	// process resumes after this handler).
	now := c.rank.Stats()
	d := bufDelta{
		msgs:  now.MsgsBuffered - c.bufStart.MsgsBuffered,
		reqs:  now.ReqsBuffered - c.bufStart.ReqsBuffered,
		bytes: now.BytesBuffered - c.bufStart.BytesBuffered,
	}
	c.bufByCycle[c.cycle] = d
	for _, m := range []*obs.Metrics{c.co.metricsFor(c.cycle), c.co.bus.Metrics()} {
		m.Counter(obs.LayerCR, "buffered_msgs").Add(int64(d.msgs))
		m.Counter(obs.LayerCR, "buffered_reqs").Add(int64(d.reqs))
		m.Counter(obs.LayerCR, "buffered_bytes").Add(d.bytes)
	}
}

// bufDelta is one rank's deferral activity during one cycle.
type bufDelta struct {
	msgs, reqs int
	bytes      int64
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
func (c *Controller) phase(name string) {
	if c.co.PhaseHook != nil {
		c.co.PhaseHook(c.rank.World(), name, c.co.epoch+1)
	}
}

// abortReturn is the common exit for a member whose cycle aborted while it
// was stopped: execution resumes without a record (the aborted cycle
// produced no checkpoint).
func (c *Controller) abortReturn() {
	c.inCkpt = false
	c.emit(obs.Instant, "abort-resume", "")
	c.releaseAligned()
}

// AtSafePoint is the member's checkpoint procedure, run in application
// context: the four phases of the checkpointing cycle.
func (c *Controller) AtSafePoint(e *mpi.Env) {
	if !c.activating {
		return // spurious (stale interrupt)
	}
	c.activating = false
	if !c.co.proto.Blocking() {
		c.uncoordSafePoint(e)
		return
	}
	c.inCkpt = true
	p := e.Proc()
	k := c.co.k
	world := c.rank.World()
	c.emit(obs.Instant, "safe-point", "")
	rec := CkptRecord{Cycle: c.cycle, Group: c.myGroup, SafePointAt: k.Now()}

	// Phase 1: Initial Synchronization — report readiness, wait for the
	// whole group to stop.
	c.phase(protocol.PhaseSync)
	c.emit(obs.Begin, "ckpt-sync", "")
	c.sendCo(msgReady{cycle: c.cycle, rank: c.rank.World()})
	ok := c.waitFlag(p, &c.goFlag, "cr: initial synchronization")
	rec.GoAt = k.Now()
	c.emit(obs.End, "ckpt-sync", "")
	if !ok {
		c.abortReturn()
		return
	}
	c.phase(protocol.PhaseTeardown)
	c.emit(obs.Begin, "ckpt-teardown",
		fmt.Sprintf("%d connections to tear down", len(c.rank.Endpoint().Peers())))

	// Phase 2: Pre-checkpoint Coordination — flush in-transit messages and
	// tear down all connections (passive peers answer via CM thread and
	// helper-driven progress).
	c.teardownConnections(p)
	rec.TeardownDone = k.Now()
	c.emit(obs.End, "ckpt-teardown", "")
	if c.abortFlag {
		c.abortReturn()
		return
	}

	// Phase 3: Local Checkpointing — BLCR-style snapshot written to the
	// shared storage system, after the fixed local setup cost (process
	// freeze, file creation).
	if c.co.cfg.LocalSetup > 0 {
		p.Sleep(c.co.cfg.LocalSetup)
	}
	snap, err := c.takeSnapshot()
	if err != nil {
		k.Fail(fmt.Errorf("cr: rank %d: %w", world, err))
		return
	}
	rec.Footprint = snap.Footprint
	rec.WriteStart = k.Now()
	c.phase(protocol.PhaseWrite)
	c.emit(obs.Begin, "ckpt-write", fmt.Sprintf("%.0f MB", float64(snap.Size())/(1<<20)))
	cycle := c.cycle
	tr, err := c.startWrite(snap)
	if err == nil {
		tr.Wait(p)
		err = tr.Err()
	}
	stale := c.abortFlag || c.cycle != cycle
	if err != nil && !stale {
		c.emit(obs.End, "ckpt-write", "")
		if errors.Is(err, storage.ErrUnavailable) {
			// Mid-cycle storage failure: hand the cycle back to the
			// coordinator for a group-wide abort and retry, then wait here
			// for the abort to arrive before resuming execution.
			c.emit(obs.Instant, "write-failed", err.Error())
			c.sendCo(msgWriteFailed{cycle: c.cycle, rank: world})
			for !c.abortFlag {
				p.Park("cr: awaiting cycle abort")
			}
			c.abortReturn()
			return
		}
		k.Fail(fmt.Errorf("cr: rank %d writing snapshot: %w", world, err))
		return
	}
	rec.WriteEnd = k.Now()
	c.emit(obs.End, "ckpt-write", "")
	if stale {
		// The cycle aborted (another member failed) while our write was in
		// flight; the snapshot belongs to the discarded epoch. A retried cycle
		// that already began has cleared abortFlag: hence the comparison.
		c.abortReturn()
		return
	}
	c.epoch++
	c.mySaved = true
	c.putSnapshot(snap)
	c.sendCo(msgSaved{cycle: c.cycle, rank: c.rank.World()})

	// Phase 4: Post-checkpoint Coordination — wait for the group to finish;
	// connections rebuild on demand as execution resumes.
	c.phase(protocol.PhaseResume)
	c.emit(obs.Begin, "ckpt-resume-wait", "")
	ok = c.waitFlag(p, &c.resumeFlag, "cr: post-checkpoint coordination")
	c.inCkpt = false
	rec.ResumeAt = k.Now()
	c.emit(obs.End, "ckpt-resume-wait", "")
	if !ok {
		// Aborted after our save: onAbort already rolled back the epoch and
		// dropped mySaved; resume without a record.
		c.emit(obs.Instant, "abort-resume", "")
		c.releaseAligned()
		return
	}
	c.emit(obs.Instant, "resume", fmt.Sprintf("downtime %v", rec.ResumeAt-rec.SafePointAt))
	c.records = append(c.records, rec)
	c.observeRecord(rec)
	c.releaseAligned()
}

// teardownConnections drives every established connection through the
// flush-and-disconnect protocol and waits for the handshakes to settle.
// Half-open outgoing connections (deferred by an epoch-mismatched peer) are
// left alone: they carry no data and complete after the recovery line passes.
func (c *Controller) teardownConnections(p *sim.Proc) {
	ep := c.rank.Endpoint()
	for {
		busy := false
		for _, peer := range ep.Peers() {
			switch ep.State(peer) {
			case ib.StateConnected:
				ep.Disconnect(peer)
				busy = true
			case ib.StateAccepting, ib.StateDraining, ib.StateDisconnecting:
				busy = true
			}
		}
		if !busy {
			return
		}
		p.Park("cr: connection teardown")
	}
}

// takeSnapshot captures the process image.
func (c *Controller) takeSnapshot() (*blcr.Snapshot, error) {
	var app, lib []byte
	if c.co.cfg.CaptureState {
		if c.CaptureFn != nil {
			var err error
			app, err = c.CaptureFn()
			if err != nil {
				return nil, fmt.Errorf("capturing application state: %w", err)
			}
		}
		var err error
		lib, err = c.rank.CaptureLibState()
		if err != nil {
			return nil, err
		}
	}
	fp := c.co.cfg.DefaultFootprint
	if c.FootprintFn != nil {
		fp = c.FootprintFn()
	}
	if c.co.cfg.Incremental && c.epoch > 0 {
		fp = c.incrementalSize(fp)
	}
	c.lastCkptAt = c.co.k.Now()
	return blcr.New(c.rank.World(), c.epoch+1, c.co.k.Now(), fp, app, lib), nil
}

// putSnapshot archives a snapshot; a duplicate means the protocol
// double-checkpointed this rank and the run is aborted.
func (c *Controller) putSnapshot(snap *blcr.Snapshot) {
	if err := c.co.snaps.Put(snap); err != nil {
		c.co.k.Fail(err)
	}
}

// incrementalSize models the dirty-page image written by an incremental
// checkpoint: a floor of always-written metadata plus memory dirtied since
// the previous snapshot, capped at the full footprint.
func (c *Controller) incrementalSize(full int64) int64 {
	dirtyBW := c.co.cfg.DirtyBW
	if dirtyBW <= 0 {
		dirtyBW = 20 << 20
	}
	floor := c.co.cfg.IncrementalFloor
	if floor <= 0 {
		floor = 0.05
	}
	elapsed := (c.co.k.Now() - c.lastCkptAt).Seconds()
	dirty := int64(floor*float64(full) + dirtyBW*elapsed)
	if dirty > full {
		return full
	}
	return dirty
}

// checkpointFinishedRank checkpoints a rank whose body already returned: it
// tears down connections and writes its image without application
// participation (the process is idle in finalize).
func (c *Controller) checkpointFinishedRank() {
	k := c.co.k
	rec := CkptRecord{Cycle: c.cycle, Group: c.myGroup, SafePointAt: k.Now()}
	c.inCkpt = true
	c.sendCo(msgReady{cycle: c.cycle, rank: c.rank.World()})
	// Proceed on msgGo by polling conn states event-driven: disconnect now
	// and re-check on each connection event.
	var tryFinish func()
	writing := false
	step := func() {
		if !c.goFlag || writing {
			return
		}
		ep := c.rank.Endpoint()
		busy := false
		for _, peer := range ep.Peers() {
			switch ep.State(peer) {
			case ib.StateConnected:
				ep.Disconnect(peer)
				busy = true
			case ib.StateAccepting, ib.StateDraining, ib.StateDisconnecting:
				busy = true
			}
		}
		if busy {
			return
		}
		rec.TeardownDone = k.Now()
		writing = true
		cycle := c.cycle
		k.After(c.co.cfg.LocalSetup, func() {
			if c.cycle != cycle || !c.cycleActive {
				return // the cycle aborted while the local setup ran
			}
			c.writeFinishedSnapshot(&rec)
		})
	}
	tryFinish = step
	// Hook connection events and the go flag to drive the steps.
	prevUp, prevDown := c.rank.ConnUpHook, c.rank.ConnDownHook
	c.rank.ConnUpHook = func(peer int) { prevUp(peer); tryFinish() }
	c.rank.ConnDownHook = func(peer int) { prevDown(peer); tryFinish() }
	c.finishedStep = tryFinish
	tryFinish()
}

// writeFinishedSnapshot completes a finished rank's inline checkpoint.
func (c *Controller) writeFinishedSnapshot(rec *CkptRecord) {
	k := c.co.k
	snap, err := c.takeSnapshot()
	if err != nil {
		k.Fail(fmt.Errorf("cr: rank %d: %w", c.rank.World(), err))
		return
	}
	rec.Footprint = snap.Footprint
	rec.WriteStart = k.Now()
	c.phase(protocol.PhaseWrite)
	cycle := c.cycle
	tr, err := c.startWrite(snap)
	if err != nil {
		k.Fail(fmt.Errorf("cr: rank %d starting snapshot write: %w", c.rank.World(), err))
		return
	}
	tr.OnDone(func() {
		if c.cycle != cycle || !c.cycleActive {
			// The cycle aborted while the write was in flight; the snapshot
			// belongs to the discarded epoch.
			c.inCkpt = false
			return
		}
		if werr := tr.Err(); werr != nil {
			if errors.Is(werr, storage.ErrUnavailable) {
				c.emit(obs.Instant, "write-failed", werr.Error())
				c.sendCo(msgWriteFailed{cycle: cycle, rank: c.rank.World()})
				c.inCkpt = false
				return
			}
			k.Fail(fmt.Errorf("cr: rank %d writing snapshot: %w", c.rank.World(), werr))
			return
		}
		rec.WriteEnd = k.Now()
		c.epoch++
		c.mySaved = true
		c.putSnapshot(snap)
		c.sendCo(msgSaved{cycle: c.cycle, rank: c.rank.World()})
		c.inCkpt = false
		rec.ResumeAt = k.Now()
		c.records = append(c.records, *rec)
		c.observeRecord(*rec)
		c.releaseAligned()
	})
}

// startWrite begins storing snap — through the storage hierarchy when one is
// installed, acknowledging at its fastest durable tier, and directly at the
// central service otherwise — and remembers the transfer so an abort can
// cancel it. Application-context callers Wait on the result.
func (c *Controller) startWrite(snap *blcr.Snapshot) (tr *storage.Transfer, err error) {
	if h := c.co.tiers; h != nil {
		tr, err = h.StartWrite(snap.Epoch, snap.Rank, snap.Size())
	} else {
		tr, err = c.co.store.Start(snap.Size())
	}
	c.write = tr
	return tr, err
}

// uncoordSafePoint is the member procedure of the uncoordinated protocol, run
// in application context: no synchronization, no teardown — the rank freezes,
// writes its image, marks it durable per rank, and resumes immediately.
// Consistency with the rest of the job comes from sender-based message
// logging at the MPI layer, not from blocking.
func (c *Controller) uncoordSafePoint(e *mpi.Env) {
	c.inCkpt = true
	p := e.Proc()
	k := c.co.k
	world := c.rank.World()
	c.emit(obs.Instant, "safe-point", "")
	rec := CkptRecord{Cycle: c.cycle, Group: c.myGroup, SafePointAt: k.Now()}
	// The sync and teardown phases collapse to instants: the rank goes
	// straight from its safe point to the local write.
	rec.GoAt = rec.SafePointAt
	rec.TeardownDone = rec.SafePointAt

	if c.co.cfg.LocalSetup > 0 {
		p.Sleep(c.co.cfg.LocalSetup)
	}
	snap, err := c.takeSnapshot()
	if err != nil {
		k.Fail(fmt.Errorf("cr: rank %d: %w", world, err))
		return
	}
	rec.Footprint = snap.Footprint
	rec.WriteStart = k.Now()
	c.phase(protocol.PhaseWrite)
	c.emit(obs.Begin, "ckpt-write", fmt.Sprintf("%.0f MB", float64(snap.Size())/(1<<20)))
	// A failed write aborts nothing but this rank's own attempt: there is no
	// cycle-wide rollback to coordinate, so the rank retries locally with the
	// same capped backoff the blocking protocols apply cycle-wide.
	for attempts := 0; ; {
		tr, err := c.startWrite(snap)
		if err == nil {
			tr.Wait(p)
			err = tr.Err()
		}
		if err == nil {
			break
		}
		if !errors.Is(err, storage.ErrUnavailable) {
			k.Fail(fmt.Errorf("cr: rank %d writing snapshot: %w", world, err))
			return
		}
		attempts++
		if attempts > c.co.cfg.maxCycleRetries() {
			k.Fail(fmt.Errorf("cr: rank %d snapshot write failed %d consecutive times; giving up",
				world, attempts))
			return
		}
		c.emit(obs.Instant, "write-failed", err.Error())
		p.Sleep(c.co.cfg.writeRetryBackoff(attempts))
	}
	rec.WriteEnd = k.Now()
	c.emit(obs.End, "ckpt-write", "")
	c.epoch++
	c.mySaved = true
	c.putSnapshot(snap)
	c.markRankDurable(snap)
	c.sendCo(msgSaved{cycle: c.cycle, rank: world})

	// No post-checkpoint coordination: resume the instant the write lands.
	c.phase(protocol.PhaseResume)
	c.inCkpt = false
	rec.ResumeAt = k.Now()
	c.emit(obs.Instant, "resume", fmt.Sprintf("downtime %v", rec.ResumeAt-rec.SafePointAt))
	c.records = append(c.records, rec)
	c.observeRecord(rec)
	c.releaseAligned()
}

// markRankDurable records the per-rank commit of the uncoordinated protocol:
// the snapshot is a restart candidate as soon as its own write completed.
func (c *Controller) markRankDurable(snap *blcr.Snapshot) {
	if err := c.co.snaps.SetRankDurable(snap.Epoch, snap.Rank); err != nil {
		c.co.k.Fail(err)
	}
}

// uncoordFinishedRank checkpoints a finished rank under the uncoordinated
// protocol: no teardown and no coordination, just the local-setup delay and
// an asynchronous write (the process is idle in finalize).
func (c *Controller) uncoordFinishedRank() {
	k := c.co.k
	rec := CkptRecord{Cycle: c.cycle, Group: c.myGroup, SafePointAt: k.Now()}
	rec.GoAt = rec.SafePointAt
	rec.TeardownDone = rec.SafePointAt
	c.inCkpt = true
	cycle := c.cycle
	k.After(c.co.cfg.LocalSetup, func() {
		if c.cycle != cycle || !c.cycleActive {
			c.inCkpt = false
			return
		}
		c.writeUncoordFinishedSnapshot(&rec)
	})
}

// writeUncoordFinishedSnapshot completes a finished rank's uncoordinated
// checkpoint, retrying a storage outage locally with capped backoff.
func (c *Controller) writeUncoordFinishedSnapshot(rec *CkptRecord) {
	k := c.co.k
	snap, err := c.takeSnapshot()
	if err != nil {
		k.Fail(fmt.Errorf("cr: rank %d: %w", c.rank.World(), err))
		return
	}
	rec.Footprint = snap.Footprint
	rec.WriteStart = k.Now()
	c.phase(protocol.PhaseWrite)
	cycle := c.cycle
	attempts := 0
	var attempt func()
	attempt = func() {
		tr, err := c.startWrite(snap)
		if err != nil {
			k.Fail(fmt.Errorf("cr: rank %d starting snapshot write: %w", c.rank.World(), err))
			return
		}
		tr.OnDone(func() {
			if werr := tr.Err(); werr != nil {
				if !errors.Is(werr, storage.ErrUnavailable) {
					k.Fail(fmt.Errorf("cr: rank %d writing snapshot: %w", c.rank.World(), werr))
					return
				}
				attempts++
				if attempts > c.co.cfg.maxCycleRetries() {
					k.Fail(fmt.Errorf("cr: rank %d snapshot write failed %d consecutive times; giving up",
						c.rank.World(), attempts))
					return
				}
				c.emit(obs.Instant, "write-failed", werr.Error())
				k.After(c.co.cfg.writeRetryBackoff(attempts), attempt)
				return
			}
			if c.cycle != cycle || !c.cycleActive {
				c.inCkpt = false
				return
			}
			rec.WriteEnd = k.Now()
			c.epoch++
			c.mySaved = true
			c.putSnapshot(snap)
			c.markRankDurable(snap)
			c.sendCo(msgSaved{cycle: c.cycle, rank: c.rank.World()})
			c.phase(protocol.PhaseResume)
			c.inCkpt = false
			rec.ResumeAt = k.Now()
			c.records = append(c.records, *rec)
			c.observeRecord(*rec)
			c.releaseAligned()
		})
	}
	attempt()
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
