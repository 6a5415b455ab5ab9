// Package fault is the deterministic, seeded fault-injection subsystem: a
// typed Scenario describes what goes wrong — rank crashes at a wall time or
// at a protocol phase, storage-server loss and degradation windows, dropped
// connection-management packets, snapshot corruption — and an Injector arms
// it against an assembled cluster, scheduling the faults as ordinary kernel
// events and emitting every injection on the observability bus (fault events
// get their own Chrome-trace track).
//
// Everything is seed-deterministic: the same scenario and seed produce the
// same injections at the same simulated instants, so a faulted run exports a
// byte-identical trace on every replay — the same contract the rest of the
// stack keeps, and what makes failure cases debuggable at all.
package fault

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/sim"
)

// ErrRankCrash is the sentinel wrapped by every injected fail-stop crash.
// The availability runner matches it with errors.Is to distinguish "the job
// was lost to an injected fault, restart it" from a simulator defect.
var ErrRankCrash = errors.New("injected rank crash")

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// RankCrash kills the whole job fail-stop, either at wall time At or
	// when Rank enters protocol phase Phase of epoch Epoch. Memory and
	// network state are lost; only storage survives.
	RankCrash Kind = iota
	// StorageOutage degrades the shared storage service for a window: the
	// aggregate bandwidth drops to Factor×nominal from At for Duration.
	// Factor 0 is a full outage — in-flight snapshot writes abort with
	// errors and the checkpoint cycle must abort and retry.
	StorageOutage
	// CMDrop makes the fabric lose connection-management packets: from At
	// on, the next Count packets matching CMType (sent by Rank, or by
	// anyone when Rank is -1) vanish in flight.
	CMDrop
	// SnapshotCorrupt damages rank Rank's archived snapshot of epoch Epoch
	// right after that epoch commits (bit rot discovered at restart time):
	// restart must fall back past it to an older verified epoch.
	SnapshotCorrupt
	// NodeMemoryLoss kills the whole job fail-stop at At like RankCrash and
	// additionally destroys the RAM-tier checkpoint copies held in the
	// failed nodes' memory: Count consecutive nodes starting at Rank
	// (Rank -1 means node 0). It defeats the RAM replication tier when
	// Count exceeds the replica count; recovery must then fall through to
	// the burst buffer or central storage.
	NodeMemoryLoss
	// BurstBufferOutage takes the shared burst-buffer tier down (or degrades
	// it to Factor×nominal) from At for Duration: in-flight burst writes
	// abort and the checkpoint cycle aborts and retries, exactly as a
	// StorageOutage does to the central service.
	BurstBufferOutage
)

// kinds is the spec grammar, one row a kind: the name a spec writes, whether
// the kind reads a trigger time ("@T") and a window ("+D"), and the options
// it reads, in the order String writes them. injector.go is the reader, and
// a time, window or option outside its kind's row is rejected, the rule
// ckptsim applies to workload-shape flags: dropped silently, the spec a
// report echoes would not be the spec that was typed. A crash reads @T only
// without a phase.
var kinds = [...]kindRow{
	RankCrash:         {"crash", true, false, []string{"rank", "phase", "epoch"}},
	StorageOutage:     {"outage", true, true, []string{"factor"}},
	CMDrop:            {"cmdrop", true, false, []string{"rank", "type", "count"}},
	SnapshotCorrupt:   {"corrupt", false, false, []string{"rank", "epoch"}},
	NodeMemoryLoss:    {"memloss", true, false, []string{"rank", "count"}},
	BurstBufferOutage: {"bboutage", true, true, []string{"factor"}},
}

type kindRow struct {
	name       string
	at, window bool
	opts       []string
}

func (kd Kind) String() string {
	if kd >= 0 && int(kd) < len(kinds) {
		return kinds[kd].name
	}
	return fmt.Sprintf("Kind(%d)", int(kd))
}

// cmClasses maps each cmdrop type= class onto the wire packet kinds it
// covers: "DISC" both disconnect packets, "FLUSH" both flush packets. No
// type= covers everything.
var cmClasses = map[string][]string{
	"REQ": {"REQ"}, "REP": {"REP"}, "RTU": {"RTU"},
	"DISC": {"DISC_REQ", "DISC_REP"}, "FLUSH": {"FLUSH", "FLUSH_ACK"},
}

// Fault is one injectable event. Which fields matter depends on Kind; the
// zero value of an unused field means "unset" (Rank -1 is "any rank", so
// constructors and the parser default Rank to -1, not 0).
type Fault struct {
	Kind Kind
	// At is the trigger wall time, measured on the availability runner's
	// global clock (summed across restart attempts), so a scenario means
	// the same thing no matter how often the job restarts around it.
	At sim.Time
	// Rank targets one rank (-1 = any). For RankCrash it is the rank named
	// in the report and matched by Phase triggers; the crash itself is
	// fail-stop for the whole job either way.
	Rank int
	// Phase triggers a RankCrash when the target rank enters this protocol
	// phase instead of at a time; zero is no phase trigger.
	Phase protocol.Phase
	// Epoch scopes Phase triggers and SnapshotCorrupt to one checkpoint
	// epoch (0 = any for Phase; required for SnapshotCorrupt).
	Epoch int
	// Duration is the StorageOutage window length.
	Duration sim.Time
	// Factor is the StorageOutage availability factor in [0, 1).
	Factor float64
	// CMType filters CMDrop to one packet type: "REQ", "REP", "RTU",
	// "DISC" (both disconnect packets), "FLUSH" (both flush packets), or
	// "" for all.
	CMType string
	// Count is how many matching packets a CMDrop loses (0 means 1).
	Count int
}

// String renders the fault in the scenario spec grammar, round-tripping
// through Parse. It writes the time, window and options the kind reads, each
// option only when it differs from what omitting it says.
func (f Fault) String() string {
	s := f.Kind.String()
	if f.Kind < 0 || int(f.Kind) >= len(kinds) {
		return s
	}
	row := kinds[f.Kind]
	switch {
	case row.window:
		s += "@" + time.Duration(f.At).String() + "+" + time.Duration(f.Duration).String()
	case row.at && f.At > 0:
		s += "@" + time.Duration(f.At).String()
	}
	var kvs []string
	for _, key := range row.opts {
		var v string
		switch {
		case key == "rank" && f.Rank >= 0:
			v = fmt.Sprint(f.Rank)
		case key == "phase" && f.Phase != 0:
			v = f.Phase.String()
		case key == "epoch" && f.Epoch > 0:
			v = fmt.Sprint(f.Epoch)
		case key == "factor" && f.Factor > 0:
			v = fmt.Sprintf("%g", f.Factor)
		case key == "type":
			v = f.CMType
		case key == "count" && f.Count > 1:
			v = fmt.Sprint(f.Count)
		}
		if v != "" {
			kvs = append(kvs, key+"="+v)
		}
	}
	if len(kvs) > 0 {
		s += ":" + strings.Join(kvs, ",")
	}
	return s
}

// validate rejects nonsensical fault descriptions at parse/build time so an
// injector never has to guess at run time.
func (f Fault) validate() error {
	switch f.Kind {
	case RankCrash:
		if f.Phase == 0 && f.At <= 0 {
			return errors.New("crash needs a time (@dur) or a phase trigger")
		}
		if f.Phase == 0 && f.Epoch != 0 {
			return errors.New("crash epoch=N scopes a phase trigger; add phase=")
		}
	case StorageOutage, BurstBufferOutage:
		if f.Duration <= 0 {
			return errors.New("outage needs a time and a positive duration (@dur+dur)")
		}
		if !(f.Factor >= 0 && f.Factor < 1) { // written so that NaN fails it
			return fmt.Errorf("outage factor %g outside [0, 1)", f.Factor)
		}
	case CMDrop:
		if _, ok := cmClasses[f.CMType]; !ok && f.CMType != "" {
			return fmt.Errorf("unknown cmdrop type %q (want REQ, REP, RTU, DISC, or FLUSH)", f.CMType)
		}
	case SnapshotCorrupt:
		if f.Epoch <= 0 {
			return errors.New("corrupt needs epoch=N (the epoch to damage)")
		}
		if f.Rank < 0 {
			return errors.New("corrupt needs rank=N (the snapshot to damage)")
		}
	case NodeMemoryLoss:
		if f.At <= 0 {
			return errors.New("memloss needs a trigger time (@dur)")
		}
	}
	return nil
}
