package obs

import (
	"fmt"
	"strconv"

	"gbcr/internal/sim"
)

// Kind names what happened: the closed vocabulary of event kinds every layer
// of the stack emits, and the identifier sinks, goldens and dashboards match
// against. It is a type, like Layer and Type, so an emit site can only name
// a kind declared here — an unregistered kind does not compile. The zero
// value is not a kind; a new one goes in the block below, above numKinds,
// with its name in kindNames (TestKindNames fails if the name is missing or
// taken).
type Kind uint8

const (
	_ Kind = iota

	// Kernel layer: process scheduling.
	KindSpawn
	KindPark
	KindDone

	// Storage layer: fluid-flow transfers and service state. Reads (restart
	// read-back) are direction-tagged with their own start/end kinds so
	// recovery traffic is distinguishable from checkpoint writes in traces.
	KindAvailability
	KindXferStart
	KindXferEnd
	KindXferAbort
	KindReadStart
	KindReadEnd
	KindRateRecompute

	// Storage layer: multi-tier checkpoint hierarchy (storage/tier).
	KindTierWrite
	KindTierDrain
	KindTierEvict
	KindTierSpill
	KindTierRecover

	// IB layer: connection management and teardown.
	KindConnUp
	KindConnDown
	KindCMReq
	KindCMRep
	KindCMDefer
	KindCMDrop // emitted by both ib (observed drop) and fault (injected drop)
	KindCMRetransmit
	KindFlushStart
	KindDiscReq

	// MPI layer: protocol decisions and progress.
	KindBufferMsg
	KindBufferReq
	KindOutboxDrain
	KindDupDrop
	KindMatchEager
	KindRdvGrant
	KindHelperTick

	// CR layer, per-rank track (Controller).
	KindSafePoint
	KindCkptSync
	KindCkptTeardown
	KindCkptWrite
	KindCkptResumeWait
	KindWriteFailed
	KindAbortResume
	KindResume

	// CR layer, coordinator track.
	KindRequest
	KindTurn
	KindGroupDone
	KindCycleAbort // coordinator decision and per-rank reaction
	KindCycleRetry
	KindCycleDone

	// Fault layer: injected faults.
	KindCrash
	KindOutage
	KindCorrupt
	KindMemLoss
	KindBBOutage

	numKinds // sentinel: one past the last kind
)

var kindNames = [numKinds]string{
	KindSpawn: "spawn", KindPark: "park", KindDone: "done",

	KindAvailability: "availability", KindXferStart: "xfer-start", KindXferEnd: "xfer-end",
	KindXferAbort: "xfer-abort", KindReadStart: "read-start", KindReadEnd: "read-end",
	KindRateRecompute: "rate-recompute",

	KindTierWrite: "tier-write", KindTierDrain: "tier-drain", KindTierEvict: "tier-evict",
	KindTierSpill: "tier-spill", KindTierRecover: "tier-recover",

	KindConnUp: "conn-up", KindConnDown: "conn-down", KindCMReq: "cm-req", KindCMRep: "cm-rep",
	KindCMDefer: "cm-defer", KindCMDrop: "cm-drop", KindCMRetransmit: "cm-retransmit",
	KindFlushStart: "flush-start", KindDiscReq: "disc-req",

	KindBufferMsg: "buffer-msg", KindBufferReq: "buffer-req", KindOutboxDrain: "outbox-drain",
	KindDupDrop: "dup-drop", KindMatchEager: "match-eager", KindRdvGrant: "rdv-grant",
	KindHelperTick: "helper-tick",

	KindSafePoint: "safe-point", KindCkptSync: "ckpt-sync", KindCkptTeardown: "ckpt-teardown",
	KindCkptWrite: "ckpt-write", KindCkptResumeWait: "ckpt-resume-wait",
	KindWriteFailed: "write-failed", KindAbortResume: "abort-resume", KindResume: "resume",

	KindRequest: "request", KindTurn: "turn", KindGroupDone: "group-done",
	KindCycleAbort: "cycle-abort", KindCycleRetry: "cycle-retry", KindCycleDone: "cycle-done",

	KindCrash: "crash", KindOutage: "outage", KindCorrupt: "corrupt", KindMemLoss: "memloss",
	KindBBOutage: "bb-outage",
}

func (k Kind) String() string {
	if k > 0 && k < numKinds {
		return kindNames[k]
	}
	return "kind?"
}

// MarshalText renders the kind name for JSON exports.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Text returns the event's human context: the detail the text timeline
// prints in parentheses and the JSONL and Chrome exports write as "detail".
// A structured kind is rendered here from the values its emit site passed,
// the one place its wording lives; any other kind's is Detail. An End event's
// text is its Detail too: a structured span's values describe its Begin.
//
//	buffer-msg, buffer-req, outbox-drain   dst=Peer
//	dup-drop                               src=Peer seq=Arg
//	match-eager, rdv-grant                 src=Peer tag=Val
//	ckpt-teardown                          Val connections to tear down
//	ckpt-write                             Val bytes, as whole MB
//	resume                                 downtime Val, a sim.Time
//	group-done                             group Val
//	cycle-done                             cycle Val, then Detail (the protocol tag)
func (e Event) Text() string {
	if e.Type == End {
		return e.Detail
	}
	switch e.What {
	case KindBufferMsg, KindBufferReq, KindOutboxDrain:
		return "dst=" + strconv.Itoa(int(e.Peer))
	case KindDupDrop:
		return "src=" + strconv.Itoa(int(e.Peer)) + " seq=" + strconv.FormatInt(e.Arg, 10)
	case KindMatchEager, KindRdvGrant: // one a message: strconv, not Sprintf
		return "src=" + strconv.Itoa(int(e.Peer)) + " tag=" + strconv.FormatInt(e.Val, 10)
	case KindCkptTeardown:
		return fmt.Sprintf("%d connections to tear down", e.Val)
	case KindCkptWrite:
		return fmt.Sprintf("%.0f MB", float64(e.Val)/(1<<20))
	case KindResume:
		return fmt.Sprintf("downtime %v", sim.Time(e.Val))
	case KindGroupDone:
		return fmt.Sprintf("group %d", e.Val)
	case KindCycleDone:
		return fmt.Sprintf("cycle %d%s", e.Val, e.Detail)
	}
	return e.Detail
}
