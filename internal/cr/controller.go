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
// implements mpi.CRHooks (safe points, the send and connection gates) and
// reacts to coordinator messages on arrival, like MVAPICH2's controller thread.
//
// The paper's checkpoint procedure (Section 3) is written once per execution
// context — AtSafePoint parks the application process through it,
// checkpointFinishedRank runs it from kernel events for a rank with no
// process left to park — from the same steps: newRecord, teardownBusy,
// takeSnapshot, writeFailed, commit, resume. Where the rank stands in the
// cycle is one state, which only transition moves.
type Controller struct {
	co   *Coordinator
	rank *mpi.Rank

	// FootprintFn supplies the process's memory footprint at snapshot time;
	// workloads install it (HPL's footprint shrinks over the run). Nil
	// means an empty image.
	FootprintFn func() int64

	epoch      int      // completed checkpoints
	lastCkptAt sim.Time // when the previous snapshot was taken (incremental)

	// Cycle state. Turns start and groups finish in schedule order (the
	// coordinator's messages share one FIFO): started and done count them.
	state         state
	rep           *CycleReport // the cycle's; this rank writes only its own slot
	baseEpoch     int
	groupOf       []int // rank → group, -1 in none; the coordinator's, shared read-only by every controller
	myGroup       int
	started, done int

	// write is this cycle's snapshot write once started; an abort cancels it,
	// so a discarded epoch's image never lands at a tier the failure spared.
	write *storage.Transfer

	// bufStart snapshots the rank's buffering counters at cycle start so
	// endCycle can attribute the cycle's deferral activity to its record.
	bufStart mpi.RankStats
}

// state is where a controller stands in the checkpointing cycle. From sync
// on, the rank is stopped for its own checkpoint.
type state uint8

const (
	stateIdle       state = iota // no cycle
	stateTurn                    // in a cycle; its group's turn has not come
	stateRequested               // a safe point is requested
	stateSaved                   // resumed with this cycle's snapshot
	stateSync                    // stopped and ready; waits for its group's msgGo (phase 1)
	stateTeardown                // flushes and closes its connections (phase 2)
	stateWrite                   // local setup, capture and write (phase 3)
	stateResumeWait              // saved; waits for its group to finish (phase 4)
	stateCommitted               // the cycle committed before the process woke to resume
	stateAborting                // the cycle aborted before the process woke to return
)

// event is what moves a controller from one state to the next.
type event uint8

const (
	evRequest   event = iota // msgCkptRequest
	evTurn                   // msgTurn, for any group
	evAsk                    // a safe point is requested
	evStop                   // the rank stops and reports ready
	evFreeze                 // the rank stops to checkpoint alone: no phases 1, 2 and 4
	evGo                     // msgGo
	evTornDown               // no connection handshake is left
	evCommit                 // the snapshot is written and archived
	evGroupDone              // msgGroupDone, for any group
	evResume                 // execution resumes
	evCycleDone              // msgCycleDone
	evAbort                  // msgAbort
	evReturn                 // the stopped process leaves the aborted cycle
)

var (
	stateNames = [...]string{"idle", "turn", "requested", "saved", "sync",
		"teardown", "write", "resume-wait", "committed", "aborting"}
	eventNames = [...]string{"request", "turn", "ask", "stop", "freeze", "go",
		"torn-down", "commit", "group-done", "resume", "cycle-done", "abort", "return"}
)

// edges is the transition table: edges[s][e] is where e moves s, and an event
// missing from s's row is illegal there. A finished rank stops straight from
// turn; a retried cycle can begin before an aborted process wakes to return.
var edges = [len(stateNames)]map[event]state{
	stateIdle: {evRequest: stateTurn},
	stateTurn: {evTurn: stateTurn, evGroupDone: stateTurn, evAbort: stateIdle, evReturn: stateTurn,
		evAsk: stateRequested, evStop: stateSync, evFreeze: stateWrite},
	stateRequested: {evStop: stateSync, evFreeze: stateWrite, evAbort: stateIdle, evReturn: stateRequested},
	stateSync:      {evTurn: stateSync, evGroupDone: stateSync, evGo: stateTeardown, evAbort: stateAborting},
	stateTeardown:  {evTornDown: stateWrite, evAbort: stateAborting},
	stateWrite:     {evCommit: stateResumeWait, evAbort: stateAborting},
	stateResumeWait: {evTurn: stateResumeWait, evGroupDone: stateResumeWait, evResume: stateSaved,
		evCycleDone: stateCommitted, evAbort: stateAborting},
	stateSaved:     {evTurn: stateSaved, evGroupDone: stateSaved, evCycleDone: stateIdle, evAbort: stateIdle},
	stateCommitted: {evResume: stateIdle},
	stateAborting:  {evReturn: stateIdle, evRequest: stateTurn},
}

// transition moves the state along e's edge and reports whether it had one;
// an event with no edge from the state fails the run and keeps the state.
func (c *Controller) transition(e event) bool {
	to, ok := edges[c.state][e]
	if !ok {
		c.co.k.Fail(fmt.Errorf("cr: rank %d: illegal event %s in state %s", c.rank.World(), eventNames[e], stateNames[c.state]))
		return false
	}
	c.state = to
	return true
}

// gated reports whether the state alone decides the send and connection gates
// (ok, and then allowed) or a blocking protocol's schedule does. A finished
// rank in sync holds nothing: a peer may wait in the quiesce for its words.
func (c *Controller) gated() (allowed, ok bool) {
	switch c.state {
	case stateIdle, stateCommitted, stateAborting:
		return true, true
	case stateSync:
		if !c.rank.Finished() {
			return false, true
		}
	case stateTeardown, stateWrite, stateResumeWait: // nothing is posted until the process resumes
		return false, true
	}
	return true, !c.co.proto.Blocking()
}

// attach makes c rank's controller and returns it.
func (c *Controller) attach(co *Coordinator, rank *mpi.Rank) *Controller {
	*c = Controller{co: co, rank: rank}
	rank.SetHooks(c)
	rank.SetIndependentCkpt(!co.proto.Blocking())
	return c
}

// ConnMeta tags outgoing connection requests with the current epoch.
func (c *Controller) ConnMeta() int64 { return int64(c.epoch) }

// ConnChanged re-evaluates connection states during checkpoint teardown: it
// wakes the parked process, or steps a finished rank.
func (c *Controller) ConnChanged(peer int) {
	if c.state < stateSync {
		return
	}
	c.unparkSelf()
	if c.state == stateTeardown && c.rank.Finished() {
		c.finishedStep()
	}
}

// SendAllowed implements the consistency gate (Section 3.2): a group that
// has taken its checkpoint must not exchange messages with a group that has
// not. Blocked traffic lands in the MPI outbox (message/request buffering).
// Uncoordinated protocols have no cross-group gate: in-flight messages are
// covered by the sender log, not by blocking.
func (c *Controller) SendAllowed(dst int) bool {
	if allowed, ok := c.gated(); ok {
		return allowed
	}
	g := c.groupOf[dst]
	if g < 0 || g == c.myGroup {
		// Same schedule; the connection layer quiesces intra-group traffic
		// during the actual checkpoint.
		return true
	}
	if g < c.started && g >= c.done {
		// That group is checkpointing right now.
		return false
	}
	return (g < c.done) == (c.state == stateSaved)
}

// AcceptConn epoch-gates passive connection acceptance: reconnection across
// the recovery line is deferred until both sides have checkpointed.
// Uncoordinated connections never tear down, so there is no line to gate.
func (c *Controller) AcceptConn(peer int, meta int64) bool {
	if allowed, ok := c.gated(); ok {
		return allowed
	}
	peerView := c.baseEpoch
	if g := c.groupOf[peer]; g >= 0 && g < c.done {
		peerView++
	}
	return peerView == c.epoch
}

// OOB handles coordinator traffic immediately on arrival.
func (c *Controller) OOB(src int, payload any) {
	switch m := payload.(type) {
	case msgCkptRequest:
		c.startCycle(m)
	case msgTurn:
		c.transition(evTurn)
		c.started = m.group + 1
		if m.group == c.myGroup && !c.co.polled() {
			c.stop() // polled mode already stopped at cycle start
		}
	case msgGo:
		c.transition(evGo)
		c.unparkSelf()
		if c.state == stateTeardown && c.rank.Finished() {
			c.rep.Records[c.rank.World()].GoAt = c.co.k.Now()
			c.phase(protocol.PhaseTeardown)
			c.finishedStep()
		}
	case msgGroupDone:
		c.transition(evGroupDone)
		c.done = m.group + 1
		if m.group == c.myGroup {
			c.unparkSelf()
		}
		c.releaseAligned()
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
	c.transition(evRequest)
	c.bufStart = c.rank.Stats()
	c.rep = m.rep
	c.baseEpoch = c.epoch
	c.groupOf = m.groupOf
	c.myGroup = m.groupOf[c.rank.World()]
	c.started, c.done = 0, 0
	blocking := c.co.proto.Blocking()
	if blocking && c.co.cfg.HelperEnabled {
		// Passive coordination: bound protocol-processing delay while the
		// application computes (Section 4.4).
		c.rank.SetHelper(true)
	}
	// Uncoordinated: no helper, no turns, no quiesce — the rank stops now and
	// checkpoints alone. Polled mode: boundary-only safe points cannot
	// interrupt a blocked receive, so a per-group stop could deadlock against
	// the consistency gate; every rank quiesces first, then groups write in
	// turn (the SCR-style discipline). Signal mode stops on msgTurn.
	if !blocking || c.co.polled() {
		c.stop()
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
		c.transition(evAsk)
		c.rank.RequestSafePointPolled()
	default:
		c.transition(evAsk)
		c.rank.RequestSafePoint()
	}
}

// onAbort cancels this rank's part in an aborted cycle: the optimistic epoch
// increment rolls back (the snapshot was discarded with the epoch), a stopped
// process wakes to return, and the gates reopen. A fresh msgCkptRequest
// retries the cycle.
func (c *Controller) onAbort(m msgAbort) {
	c.emit(obs.Instant, obs.KindCycleAbort, 0)
	if c.state == stateResumeWait || c.state == stateSaved {
		c.epoch--
	}
	c.transition(evAbort)
	if c.state == stateAborting && c.rank.Finished() {
		c.transition(evReturn) // no process will wake to run abortReturn
	}
	c.rank.SetHelper(false)
	if c.write != nil {
		c.write.Cancel(fmt.Errorf("cr: cycle %d aborted", m.cycle)) // a no-op once finished
	}
	c.unparkSelf()
	c.releaseAligned()
}

func (c *Controller) endCycle() {
	if !c.transition(evCycleDone) {
		return
	}
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
// cycle's report. A retried cycle may already have begun.
func (c *Controller) abortReturn() {
	c.transition(evReturn)
	c.emit(obs.Instant, obs.KindAbortResume, 0)
	c.releaseAligned()
}

// AtSafePoint is the member's checkpoint procedure in application context:
// the cycle's four phases, each wait a park until the state moves on. A
// non-blocking protocol has no phases 1, 2 and 4: the rank writes and resumes
// alone, and sender-based message logging keeps the job consistent.
func (c *Controller) AtSafePoint(e *mpi.Env) {
	if c.state != stateRequested {
		return // spurious (stale interrupt)
	}
	p, k := e.Proc(), c.co.k
	blocking, ev := c.co.proto.Blocking(), evFreeze
	if blocking {
		ev = evStop
	}
	c.transition(ev)
	c.emit(obs.Instant, obs.KindSafePoint, 0)
	rec := c.newRecord()

	if blocking {
		// Phase 1: Initial Synchronization — report readiness, wait for the
		// whole group to stop.
		c.phase(protocol.PhaseSync)
		c.emit(obs.Begin, obs.KindCkptSync, 0)
		c.sendCo(msgReady{cycle: c.rep.Cycle, rank: c.rank.World()})
		for c.state == stateSync {
			p.Park("cr: initial synchronization")
		}
		rec.GoAt = k.Now()
		c.emit(obs.End, obs.KindCkptSync, 0)
		if c.state != stateTeardown {
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
		if c.state != stateTeardown {
			c.abortReturn()
			return
		}
		c.transition(evTornDown)
	}

	// Phase 3: Local Checkpointing — BLCR-style snapshot written to the
	// shared storage system, after the fixed local setup cost (process
	// freeze, file creation).
	if c.co.cfg.LocalSetup > 0 {
		p.Sleep(c.co.cfg.LocalSetup)
		if c.state != stateWrite {
			// Aborted during the setup: no image of the discarded epoch.
			c.abortReturn()
			return
		}
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
		if c.state != stateWrite {
			// The cycle aborted (another member failed) while our write was in
			// flight; the snapshot belongs to the discarded epoch.
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
			for c.state == stateWrite {
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
		for c.state == stateResumeWait && c.done <= c.myGroup {
			p.Park("cr: post-checkpoint coordination")
		}
		c.emit(obs.End, obs.KindCkptResumeWait, 0)
		if c.state == stateAborting {
			// Aborted after our save: onAbort already rolled back the epoch.
			c.abortReturn()
			return
		}
	}
	c.resume(rec)
}

// checkpointFinishedRank is the member's checkpoint procedure in event
// context, for a rank whose process idles in finalize and cannot park: each
// wait of AtSafePoint becomes the event that ends it (msgGo and connection
// events, a timer, the write's completion). With no execution to resume, the
// rank does not wait for its group: it resumes as its write ends.
func (c *Controller) checkpointFinishedRank() {
	rec := c.newRecord()
	if !c.co.proto.Blocking() {
		c.transition(evFreeze)
		c.finishedWrite(rec, nil, 1, c.co.cfg.LocalSetup)
		return
	}
	// Phases 1 and 2: report readiness; msgGo starts the teardown.
	c.transition(evStop)
	c.phase(protocol.PhaseSync)
	c.sendCo(msgReady{cycle: c.rep.Cycle, rank: c.rank.World()})
}

// finishedStep advances a finished rank's teardown: msgGo and every
// connection event re-check it until every handshake has settled, and then
// phase 3 begins.
func (c *Controller) finishedStep() {
	if c.teardownBusy() {
		return
	}
	rec := &c.rep.Records[c.rank.World()]
	rec.TeardownDone = c.co.k.Now()
	c.transition(evTornDown)
	c.finishedWrite(rec, nil, 1, c.co.cfg.LocalSetup)
}

// finishedWrite is a finished rank's phase 3 from the given attempt on,
// after delay (the local setup, or a retry's backoff): it commits and resumes
// as its write lands. onAbort moves the state before it cancels the write, so
// a continuation that finds the rank out of this cycle's write stands down.
func (c *Controller) finishedWrite(rec *CkptRecord, snap *blcr.Snapshot, attempt int, delay sim.Time) {
	k := c.co.k
	stale := func() bool { return c.state != stateWrite || c.rep.Cycle != rec.Cycle }
	k.After(delay, func() {
		if stale() {
			return
		}
		if snap == nil {
			if snap = c.takeSnapshot(rec); snap == nil {
				return
			}
		}
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
				if backoff, ok := c.writeFailed(err, attempt); ok && !c.co.proto.Blocking() {
					c.finishedWrite(rec, snap, attempt+1, backoff)
				}
				return // blocking: the coordinator's abort ends this attempt
			}
			rec.WriteEnd = k.Now()
			c.commit(snap)
			c.phase(protocol.PhaseResume)
			c.resume(rec)
		})
	})
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
// peer) carry no data and complete after the recovery line: left alone.
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
	incrementalFloor = 0.05    // of the footprint, always written: page tables, hot pages
	dirtyBW          = 1 << 20 // bytes a running process dirties a second: ~50 MB between checkpoints
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

// startWrite begins storing snap through the storage stack, acknowledged at
// its fastest durable tier, and remembers the transfer for an abort to cancel.
func (c *Controller) startWrite(snap *blcr.Snapshot) (tr *storage.Transfer, err error) {
	tr, err = c.co.tiers.StartWrite(snap.Epoch, snap.Rank, snap.Size())
	c.write = tr
	return tr, err
}

// writeFailed classifies a failed snapshot write, attempt counting from 1.
// Anything but a storage outage fails the run (ok false). A blocking protocol
// hands an outage to the coordinator, which aborts and retries the cycle;
// otherwise the rank retries alone, after the same capped backoff and at most
// maxCycleRetries times.
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
// (optimistically under a blocking protocol: onAbort rolls it back), the image
// is archived — durable at once without a global commit — and the coordinator
// is told. An archive error means a double checkpoint, and fails the run.
func (c *Controller) commit(snap *blcr.Snapshot) {
	c.epoch++
	c.transition(evCommit)
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
	c.transition(evResume)
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
