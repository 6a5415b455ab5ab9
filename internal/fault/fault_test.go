package fault

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gbcr/internal/sim"
)

// roundTrip are specs whose String parses back to the same Scenario; they
// seed FuzzParse too.
var roundTrip = []string{
	"crash@12s",
	"crash@1.5s:rank=3",
	"crash:rank=3,phase=write,epoch=1",
	"outage@20s+5s",
	"outage@20s+5s:factor=0.25",
	"cmdrop:type=REQ,count=2",
	"cmdrop@3s:rank=1,type=DISC",
	"corrupt:rank=0,epoch=1",
	"memloss@17s",
	"memloss@17s:rank=2,count=3",
	"bboutage@20s+5s",
	"bboutage@20s+5s:factor=0.5",
	"crash@12s;outage@20s+5s;mtbf=1m30s;seed=7",
	"memloss@3s:count=2;bboutage@8s+2s;seed=11",
}

// checkRoundTrip fails t if String of an accepted spec does not parse back
// to an equal Scenario; a rejected spec passes.
func checkRoundTrip(t *testing.T, spec string) {
	scn, err := Parse(spec)
	if err != nil {
		return
	}
	again, err := Parse(scn.String())
	if err != nil {
		t.Fatalf("Parse(String(%q)) = Parse(%q): %v", spec, scn.String(), err)
	}
	if !reflect.DeepEqual(scn, again) {
		t.Fatalf("round trip of %q through %q: %+v != %+v", spec, scn.String(), scn, again)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range roundTrip {
		if _, err := Parse(spec); err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		checkRoundTrip(t, spec)
	}
}

// FuzzParse: Parse never panics, and String of every spec it accepts parses
// back to an equal Scenario.
func FuzzParse(f *testing.F) {
	for _, spec := range roundTrip {
		f.Add(spec)
	}
	f.Fuzz(checkRoundTrip)
}

func TestParseScenarioSettings(t *testing.T) {
	scn, err := Parse(" mtbf=90s ; seed=42 ; crash@5s ")
	if err != nil {
		t.Fatal(err)
	}
	if scn.MTBF != 90*sim.Second || scn.Seed != 42 || len(scn.Faults) != 1 {
		t.Fatalf("parsed %+v", scn)
	}
}

func TestParseDegradeAlias(t *testing.T) {
	scn, err := Parse("degrade@10s+2s")
	if err != nil {
		t.Fatal(err)
	}
	f := scn.Faults[0]
	if f.Kind != StorageOutage || f.Factor != 0.5 || f.Duration != 2*sim.Second {
		t.Fatalf("degrade parsed as %+v", f)
	}
}

func TestParseDefaults(t *testing.T) {
	scn, err := Parse("cmdrop:type=rtu")
	if err != nil {
		t.Fatal(err)
	}
	f := scn.Faults[0]
	if f.Rank != -1 || f.Count != 1 || f.CMType != "RTU" {
		t.Fatalf("cmdrop defaults: %+v", f)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"meteor@3s",                 // unknown kind
		"crash",                     // no trigger
		"crash:phase=flying",        // unknown phase
		"crash@abc",                 // bad duration
		"outage@5s",                 // no window length
		"outage@5s+2s:factor=1.5",   // factor out of range
		"outage@1s+1s:factor=NaN",   // NaN is not in [0, 1)
		"bboutage@1s+1s:factor=nan", // nor for the burst buffer
		"cmdrop:type=NAK",           // unknown packet type
		"cmdrop:count=-1",           // negative count
		"corrupt:epoch=1",           // corrupt needs a rank
		"corrupt:rank=1",            // corrupt needs an epoch
		"crash@5s:color=red",        // not an option of any kind
		"crash@5s:rank",             // malformed option
		"mtbf=banana",               // bad setting value
		"mtbf=0s",                   // "no MTBF" is said by omitting it
		"mtbf=-5s",                  // negative mean time between failures
		"seed=pi",                   // bad seed
		"crash@5s;outage@1s",        // error in later segment
		"memloss",                   // memloss needs a trigger time
		"bboutage@5s",               // no window length
		"bboutage@5s+2s:factor=1.5", // factor out of range
		"cmdrop@-1s",                // a time is not negative
		"degrade@1s+1s:count=2",     // the alias reads what outage reads
		// Values that used to run as "any" or as the default are not
		// dropped.
		"crash@1s:epoch=2",           // epoch scopes a phase trigger; there is none
		"crash@1s:rank=-3",           // "any rank" is said by omitting rank
		"crash:phase=write,epoch=-1", // "any epoch" by omitting epoch
		"crash:phase=write,epoch=0",  // epochs count from 1
		"corrupt:epoch=1,rank=-1",    // corrupt needs a real rank
		"memloss@1s:count=0",         // a node loss loses at least one node
		"cmdrop:count=0",             // a drop drops at least one packet
		"crash@5s:phase=write",       // a crash reads @T only without a phase
	} {
		checkRejected(t, spec, "")
	}
}

// checkRejected fails t unless Parse rejects spec with a one-line
// `fault: ... in "<segment>"` error containing want.
func checkRejected(t *testing.T, spec, want string) {
	t.Helper()
	_, err := Parse(spec)
	if err == nil {
		t.Errorf("Parse(%q) accepted", spec)
	} else if msg := err.Error(); !strings.HasPrefix(msg, "fault: ") || !strings.Contains(msg, ` in "`) ||
		strings.Contains(msg, "\n") || !strings.Contains(msg, want) {
		t.Errorf("Parse(%q): %q is not the one-line `fault: ... in \"<segment>\"` form containing %q", spec, msg, want)
	}
}

// TestKindTable: for every kind, and for each option, the trigger time @T
// and the window +D, Parse accepts a spec that adds it to the kind's
// smallest spec exactly when the kind's row in kinds reads it.
func TestKindTable(t *testing.T) {
	keys := []string{"rank", "phase", "epoch", "factor", "type", "count"}
	vals := map[string]string{"rank": "1", "phase": "write", "epoch": "1", "factor": "0.25", "type": "REQ", "count": "2"}
	for k, row := range kinds {
		// The smallest spec reads the time and window its row names, and
		// what validate asks for: a corrupt names its snapshot.
		at, win, base := "", "", map[string]string{}
		if row.at {
			at = "@1s"
		}
		if row.window {
			win = "+1s"
		}
		if Kind(k) == SnapshotCorrupt {
			base = map[string]string{"rank": "0", "epoch": "1"}
		}
		spec := func(at, win string, opts map[string]string) string {
			s, sep := row.name+at+win, ":"
			for _, key := range keys {
				if v, ok := opts[key]; ok {
					s, sep = s+sep+key+"="+v, ","
				}
			}
			return s
		}
		for _, key := range keys {
			opts, at := maps.Clone(base), at
			opts[key] = vals[key]
			if Kind(k) == RankCrash && (key == "phase" || key == "epoch") {
				// A phase trigger replaces a crash's time, and an epoch
				// scopes one.
				opts["phase"], at = "write", ""
			}
			if s := spec(at, win, opts); slices.Contains(row.opts, key) {
				if _, err := Parse(s); err != nil {
					t.Errorf("%s reads %s, but Parse(%q): %v", row.name, key, s, err)
				}
			} else {
				checkRejected(t, s, fmt.Sprintf("has no option %q", key))
			}
		}
		if s := spec("@1s", win, base); row.at {
			if _, err := Parse(s); err != nil {
				t.Errorf("%s reads @T, but Parse(%q): %v", row.name, s, err)
			}
		} else {
			checkRejected(t, s, "reads no trigger time")
		}
		if s := spec("@1s", "+1s", base); row.window {
			if _, err := Parse(s); err != nil {
				t.Errorf("%s reads +D, but Parse(%q): %v", row.name, s, err)
			}
		} else {
			checkRejected(t, s, "reads no")
		}
	}
}

func TestKindAndFaultString(t *testing.T) {
	if RankCrash.String() != "crash" || SnapshotCorrupt.String() != "corrupt" {
		t.Fatal("kind names")
	}
	f := Fault{Kind: StorageOutage, Rank: -1, At: 20 * sim.Second, Duration: 5 * sim.Second, Factor: 0.25}
	if got := f.String(); got != "outage@20s+5s:factor=0.25" {
		t.Fatalf("String() = %q", got)
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind String")
	}
}

func TestCMTypeMatches(t *testing.T) {
	cases := []struct {
		want, kind string
		match      bool
	}{
		{"", "REQ", true},
		{"REQ", "REQ", true},
		{"REQ", "REP", false},
		{"DISC", "DISC_REQ", true},
		{"DISC", "DISC_REP", true},
		{"DISC", "FLUSH", false},
		{"FLUSH", "FLUSH", true},
		{"FLUSH", "FLUSH_ACK", true},
		{"FLUSH", "DISC_REQ", false},
	}
	for _, c := range cases {
		if got := cmTypeMatches(c.want, c.kind); got != c.match {
			t.Errorf("cmTypeMatches(%q, %q) = %v, want %v", c.want, c.kind, got, c.match)
		}
	}
}

// TestCheckRanks: a rank the job does not have is rejected for every kind
// that names one; "any rank" (-1) and ranks in range pass.
func TestCheckRanks(t *testing.T) {
	for _, c := range []struct {
		spec string
		n    int
		ok   bool
	}{
		{"crash@1s;outage@2s+1s", 8, true},
		{"crash@1s:rank=7", 8, true},
		{"crash@1s:rank=8", 8, false},
		{"crash:phase=write,rank=99", 8, false},
		{"memloss@1s:rank=99", 8, false},
		{"memloss@1s:rank=7,count=3", 8, true}, // the named node exists; the count runs off the end
		{"cmdrop@1s:type=REQ,rank=99", 8, false},
		{"corrupt:epoch=1,rank=99", 8, false},
		{"corrupt:epoch=1,rank=3", 4, true},
	} {
		scn, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if err := scn.CheckRanks(c.n); (err == nil) != c.ok {
			t.Errorf("CheckRanks(%d) on %q = %v, want ok=%v", c.n, c.spec, err, c.ok)
		}
	}
}
