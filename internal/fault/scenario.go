package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/sim"
)

// Scenario is a complete fault plan: a scripted list of faults plus an
// optional stochastic whole-job crash process (exponential inter-failure
// times with mean MTBF drawn from Seed). The availability runner replays a
// scenario deterministically: same scenario, same seed, same injections.
type Scenario struct {
	Faults []Fault
	// MTBF, when positive, adds stochastic fail-stop job losses with this
	// mean time between failures on top of the scripted faults.
	MTBF sim.Time
	// Seed feeds the stochastic generator. Zero means 1.
	Seed int64
}

// String renders the scenario in the spec grammar, round-tripping through
// Parse.
func (s Scenario) String() string {
	var parts []string
	for _, f := range s.Faults {
		parts = append(parts, f.String())
	}
	if s.MTBF > 0 {
		parts = append(parts, "mtbf="+time.Duration(s.MTBF).String())
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	return strings.Join(parts, ";")
}

// HasKind reports whether any scripted fault is of the given kind. Runners
// use it to reject faults that target a subsystem the cluster was built
// without (a burst-buffer outage on a cluster with no burst tier).
func (s Scenario) HasKind(k Kind) bool {
	for _, f := range s.Faults {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// CheckPhases rejects phase-triggered crashes naming a phase outside the
// active protocol's vocabulary. Parse accepts any protocol.Phase; the runner
// calls this once the protocol is known (e.g. "crash:phase=sync" cannot fire
// under the uncoordinated protocol, which has no synchronization phase).
func (s Scenario) CheckPhases(allowed []protocol.Phase) error {
	for _, f := range s.Faults {
		if f.Phase != 0 && !slices.Contains(allowed, f.Phase) {
			return fmt.Errorf("fault: crash phase %q is not in the active protocol's vocabulary %v", f.Phase, allowed)
		}
	}
	return nil
}

// CheckRanks rejects faults naming a rank an n-rank job does not have: such
// a crash reports a rank that is not there, and a cmdrop filter, a memory
// loss or a corruption aimed at one hits nothing. Parse cannot know n; the
// runner calls this beside CheckPhases.
func (s Scenario) CheckRanks(n int) error {
	for _, f := range s.Faults {
		if f.Rank >= n {
			return fmt.Errorf("fault: %v names rank %d, but the job has ranks 0..%d", f, f.Rank, n-1)
		}
	}
	return nil
}

// Parse reads a scenario spec: semicolon-separated segments, each either a
// fault or a scenario-level setting.
//
//	fault   = kind [ "@" dur [ "+" dur ] ] [ ":" key "=" val { "," key "=" val } ]
//	kind    = "crash" | "outage" | "degrade" | "cmdrop" | "corrupt" |
//	          "memloss" | "bboutage"
//	setting = "mtbf=" dur | "seed=" int
//
// Durations use Go syntax ("12s", "1.5s", "250ms"). "degrade" is an outage
// with a default factor of 0.5. "memloss" and "bboutage" target the
// multi-tier storage hierarchy: the former is a crash that also destroys the
// RAM-tier copies of count consecutive nodes, the latter an availability
// window on the burst-buffer tier. Keys: rank, phase, epoch, factor, type,
// count; a key, a time or a window outside the kind's row of kinds is an
// error, not ignored. Examples:
//
//	crash@12s
//	crash:phase=write,epoch=1,rank=3
//	outage@20s+5s
//	degrade@20s+5s:factor=0.25
//	cmdrop@3s:type=REQ,count=2
//	corrupt:epoch=1,rank=0
//	memloss@17s:rank=0,count=2
//	bboutage@20s+5s
//	mtbf=90s;seed=7
func Parse(spec string) (Scenario, error) {
	var scn Scenario
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		switch {
		case strings.HasPrefix(seg, "mtbf="):
			d, err := time.ParseDuration(strings.TrimPrefix(seg, "mtbf="))
			if err != nil {
				return Scenario{}, fmt.Errorf("fault: bad mtbf in %q: %w", seg, err)
			}
			if d <= 0 {
				return Scenario{}, fmt.Errorf("fault: mtbf must be positive in %q (omit it for no stochastic failures)", seg)
			}
			scn.MTBF = sim.Time(d)
		case strings.HasPrefix(seg, "seed="):
			n, err := strconv.ParseInt(strings.TrimPrefix(seg, "seed="), 10, 64)
			if err != nil {
				return Scenario{}, fmt.Errorf("fault: bad seed in %q: %w", seg, err)
			}
			scn.Seed = n
		default:
			f, err := parseFault(seg)
			if err != nil {
				return Scenario{}, err
			}
			scn.Faults = append(scn.Faults, f)
		}
	}
	return scn, nil
}

func parseFault(seg string) (Fault, error) {
	head, opts, hasOpts := strings.Cut(seg, ":")
	head, at, hasAt := strings.Cut(head, "@")
	atPart, durPart, hasDur := strings.Cut(at, "+")
	f := Fault{Rank: -1}
	name := head
	if head == "degrade" {
		name, f.Factor = "outage", 0.5
	}
	k := slices.IndexFunc(kinds[:], func(r kindRow) bool { return r.name == name })
	if k < 0 {
		return Fault{}, fmt.Errorf("fault: unknown kind %q in %q", head, seg)
	}
	f.Kind = Kind(k)
	row := kinds[k]
	if slices.Contains(row.opts, "count") {
		f.Count = 1
	}
	if hasAt {
		d, err := time.ParseDuration(atPart)
		if err != nil {
			return Fault{}, fmt.Errorf("fault: bad time in %q: %w", seg, err)
		}
		if d < 0 {
			return Fault{}, fmt.Errorf("fault: negative time in %q", seg)
		}
		f.At = sim.Time(d)
		if hasDur {
			w, err := time.ParseDuration(durPart)
			if err != nil {
				return Fault{}, fmt.Errorf("fault: bad duration in %q: %w", seg, err)
			}
			f.Duration = sim.Time(w)
		}
	}
	if hasOpts {
		for _, kv := range strings.Split(opts, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return Fault{}, fmt.Errorf("fault: bad option %q in %q (want key=val)", kv, seg)
			}
			if err := applyOpt(&f, head, key, val); err != nil {
				return Fault{}, fmt.Errorf("fault: %w in %q", err, seg)
			}
		}
	}
	switch {
	case hasAt && f.Kind == RankCrash && f.Phase != 0:
		return Fault{}, fmt.Errorf("fault: crash fires at a time or at a phase, not both, in %q", seg)
	case hasAt && !row.at:
		return Fault{}, fmt.Errorf("fault: %s reads no trigger time (@dur) in %q", head, seg)
	case hasDur && !row.window:
		return Fault{}, fmt.Errorf("fault: %s reads no window (+dur) in %q", head, seg)
	}
	if err := f.validate(); err != nil {
		return Fault{}, fmt.Errorf("fault: %w in %q", err, seg)
	}
	return f, nil
}

// applyOpt sets one key=val option on f; head is the kind as it was typed.
// "Any rank", "any epoch" and the default count are said by omitting the
// option, so zero and negative values are errors too.
func applyOpt(f *Fault, head, key, val string) error {
	if opts := kinds[f.Kind].opts; !slices.Contains(opts, key) {
		return fmt.Errorf("%s has no option %q (it reads %s)", head, key, strings.Join(opts, ", "))
	}
	switch key {
	case "rank":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("bad rank %q (want 0 or more; omit it for any rank)", val)
		}
		f.Rank = n
	case "phase":
		p, err := protocol.ParsePhase(val)
		if err != nil {
			return err
		}
		f.Phase = p
	case "epoch":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("bad epoch %q (want 1 or more; omit it for any epoch)", val)
		}
		f.Epoch = n
	case "factor":
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad factor %q", val)
		}
		f.Factor = x
	case "type":
		f.CMType = strings.ToUpper(val)
	case "count":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("bad count %q (want 1 or more)", val)
		}
		f.Count = n
	}
	return nil
}
