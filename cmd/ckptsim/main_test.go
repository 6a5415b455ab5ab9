package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gbcr/cmd/internal/cli"
)

// runMainEnv, set to 1, makes this test binary run main instead of the
// tests, so TestExitStatus can see the statuses the process exits with.
const runMainEnv = "GBCR_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// ckptsim runs the command in-process and returns what it wrote and the
// error it returned.
func ckptsim(args ...string) (stdout, stderr []byte, err error) {
	var o, e bytes.Buffer
	err = run(args, &o, &e)
	return o.Bytes(), e.Bytes(), err
}

// TestExitStatus pins the statuses main gives run's errors, in a child
// process: 0 on success and -h, 1 with exactly one "ckptsim: ..." line on
// stderr and nothing on stdout for rejected input, 2 with the usage for a
// flag that does not parse.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
		stderr string // its prefix
	}{
		{[]string{"-workload", "ring", "-n", "4", "-iters", "20", "-at", "0.5"}, 0, ""},
		{[]string{"-h"}, 0, "Usage of ckptsim:\n"},
		{[]string{"-workload", "nosuch"}, 1, "ckptsim: unknown workload \"nosuch\""},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined: -nosuchflag\nUsage of ckptsim:\n"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if cmd.ProcessState == nil {
			t.Fatal(err)
		}
		name := strings.Join(c.args, " ")
		if status := cmd.ProcessState.ExitCode(); status != c.status {
			t.Errorf("%s: exit status %d (%v), want %d\nstderr: %s", name, status, err, c.status, stderr.String())
		}
		if !strings.HasPrefix(stderr.String(), c.stderr) || c.stderr == "" && stderr.Len() > 0 {
			t.Errorf("%s: stderr %q, want it to start with %q", name, stderr.String(), c.stderr)
		}
		if c.status == 1 && (strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0) {
			t.Errorf("%s: want one stderr line and no stdout, got %q and %q", name, stderr.String(), stdout.String())
		}
	}
}

// TestRejectedInput pins the CLI contract for malformed input: an error of
// one line (main prints it as "ckptsim: ..." and exits 1), nothing on stdout
// or stderr, and no file written — never a panic, a stack overflow, or a run
// that reports garbage.
func TestRejectedInput(t *testing.T) {
	ring := []string{"-workload", "ring", "-n", "8", "-iters", "50"}
	out := t.TempDir() // no rejected run may leave a file here
	exports := []string{"-trace-json", filepath.Join(out, "t.jsonl"),
		"-trace-chrome", filepath.Join(out, "t.json"), "-metrics-json", filepath.Join(out, "m.json")}
	small := []string{"-workload", "commgroups", "-n", "4", "-iters", "20", "-footprint", "10"}
	cases := []struct {
		name string
		args []string
	}{
		{"at NaN", append(ring, "-at", "NaN")},
		{"at Inf", append(ring, "-at", "Inf")},
		{"at overflows the clock", append(ring, "-at", "1e30")},
		{"at overflows inside a list", append(ring, "-at", "1,1e30")},
		{"at negative", append(ring, "-at", "-1")},
		{"mtbf Inf", append(ring, "-mtbf", "Inf")},
		{"interval NaN", append(ring, "-mtbf", "60", "-interval", "NaN")},
		{"unknown workload", []string{"-workload", "nosuch"}},
		{"interval without mtbf", append(ring, "-interval", "5")},
		{"v with an at list", append(ring, "-v", "-at", "1,2")},
		{"replicas under local staging", append(ring, "-storage", "local", "-replicas", "2")},
		{"local staging under uncoord", append(ring, "-storage", "local", "-protocol", "uncoord")},
		{"n under hpl", []string{"-workload", "hpl", "-n", "7"}},
		{"footprint under motif", []string{"-workload", "motif", "-footprint", "10"}},
		{"comm under ring", append(ring, "-comm", "4", "-at", "1")},
		{"iters under barrier", []string{"-workload", "barrier", "-iters", "10"}},
		{"fault rank outside the job", append(ring, "-interval", "2", "-faults", "crash@1s:rank=99")},
		{"outage factor NaN", append(ring, "-interval", "2", "-faults", "outage@1s+1s:factor=NaN")},
		{"mtbf negative in a scenario", append(ring, "-interval", "2", "-faults", "mtbf=-5s")},
		{"fault option its kind does not read", append(ring, "-interval", "2", "-faults", "crash@1s:factor=0.5")},
		{"fault epoch without a phase", append(ring, "-interval", "2", "-faults", "crash@1s:epoch=2")},
		{"fault rank negative", append(ring, "-interval", "2", "-faults", "crash@1s:rank=-3")},
		{"memloss count zero", append(ring, "-interval", "2", "-faults", "memloss@1s:count=0")},
		{"crash with a window", append(ring, "-interval", "2", "-faults", "crash@5s+3s")},
		{"crash with a time and a phase", append(ring, "-interval", "2", "-faults", "crash@5s:phase=write")},
		{"corrupt with a time", append(ring, "-interval", "2", "-faults", "corrupt@5s:epoch=1,rank=0")},
		{"memloss with a window", append(ring, "-interval", "2", "-faults", "memloss@5s+2s")},
		{"cmdrop with a window", append(ring, "-interval", "2", "-faults", "cmdrop@3s+1s:type=REQ")},
		{"fault phase unknown", append(ring, "-interval", "2", "-faults", "crash:phase=bogus")},
		{"fault phase outside the protocol", append(ring, "-interval", "2", "-protocol", "uncoord", "-faults", "crash:phase=sync")},
		{"unknown protocol", append(ring, "-protocol", "chandy")},
		{"group past the job", []string{"-workload", "ring", "-n", "4", "-iters", "20", "-group", "8", "-at", "0.5"}},
		{"at on a failure run", []string{"-workload", "ring", "-n", "4", "-iters", "40", "-interval", "1", "-faults", "crash@1s", "-at", "30"}},
		{"v on a failure run", []string{"-workload", "ring", "-n", "4", "-iters", "40", "-interval", "1", "-faults", "crash@1s", "-v"}},
		{"comm past the job", append([]string{"-workload", "commgroups", "-n", "4", "-comm", "64"}, exports...)},
		{"comm zero", []string{"-workload", "commgroups", "-n", "4", "-comm", "0"}},
		{"profile in a missing directory", append(ring, "-at", "1", "-memprofile", filepath.Join(t.TempDir(), "missing", "m.out"))},
		{"at after the job", append(append(small, "-at", "100"), exports...)},
		{"at after the job in a list", append(append(small, "-at", "0.5,100"), exports...)},
	}
	// The prefix of the error, where a case pins one.
	wants := map[string]string{
		"at after the job":           "-at 100s is not before the job's failure-free end at 2.00039s",
		"at after the job in a list": "cell 1: commgroups(n=4,comm=4) group=4 at=100s: -at 100s is not before",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := ckptsim(tc.args...)
			if err == nil || errors.Is(err, cli.ErrUsage) || strings.Contains(err.Error(), "\n") ||
				!strings.HasPrefix(err.Error(), wants[tc.name]) {
				t.Fatalf("want a one-line error other than a usage one starting %q, got %v", wants[tc.name], err)
			}
			if len(stdout)+len(stderr) != 0 {
				t.Errorf("rejected run wrote %q to stdout and %q to stderr", stdout, stderr)
			}
			if files, err := os.ReadDir(out); err != nil || len(files) != 0 {
				t.Errorf("rejected run left files %v (%v)", files, err)
			}
		})
	}
}

// listArgs is the job the -at list tests run: 8 ranks in communication and
// checkpoint groups of 4, small enough that a cell takes a fraction of a
// second.
var listArgs = []string{"-workload", "commgroups", "-n", "8", "-comm", "4", "-group", "4",
	"-iters", "250", "-footprint", "20"}

// TestMultiCellOutputsIndependentOfWidth runs the same -at list on one-, two-
// and four-wide worker pools: stdout, the merged -trace timeline included,
// and every merged export must be byte-identical.
func TestMultiCellOutputsIndependentOfWidth(t *testing.T) {
	files := []string{"trace.jsonl", "trace.json", "metrics.json"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(gomaxprocs int) (stdout []byte, exports [][]byte) {
		dir := t.TempDir()
		runtime.GOMAXPROCS(gomaxprocs) // the width of the -at list's worker pool
		stdout, _, err := ckptsim(append(listArgs, "-at", "5,10,15,20", "-trace",
			"-trace-json", filepath.Join(dir, files[0]),
			"-trace-chrome", filepath.Join(dir, files[1]),
			"-metrics-json", filepath.Join(dir, files[2]))...)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", gomaxprocs, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatalf("GOMAXPROCS=%d: %s is empty", gomaxprocs, f)
			}
			exports = append(exports, data)
		}
		return stdout, exports
	}
	out1, exp1 := run(1)
	if !bytes.Contains(out1, []byte("\nmerged timeline:\n=== cell 0: ")) {
		t.Fatalf("stdout has no merged timeline:\n%s", out1)
	}
	for _, width := range []int{2, 4} {
		out, exp := run(width)
		if !bytes.Equal(out1, out) {
			t.Errorf("stdout differs between GOMAXPROCS=1 and %d:\n%s\nvs\n%s", width, out1, out)
		}
		for i, f := range files {
			if !bytes.Equal(exp1[i], exp[i]) {
				t.Errorf("%s differs between GOMAXPROCS=1 and %d (%d vs %d bytes)", f, width, len(exp1[i]), len(exp[i]))
			}
		}
	}
}

// TestListCellRecordsItsRunAlone: a cell of an -at list records what the
// same issuance time records run alone, so cell 1's -trace-json body, the
// lines after its header object, is the -at 10 run's file byte for byte.
func TestListCellRecordsItsRunAlone(t *testing.T) {
	dir := t.TempDir()
	list, alone := filepath.Join(dir, "list.jsonl"), filepath.Join(dir, "alone.jsonl")
	for _, c := range [][]string{{"5,10", list}, {"10", alone}} {
		if _, _, err := ckptsim(append(listArgs, "-at", c[0], "-trace-json", c[1])...); err != nil {
			t.Fatalf("-at %s: %v", c[0], err)
		}
	}
	got, err := os.ReadFile(list)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(alone)
	if err != nil {
		t.Fatal(err)
	}
	_, cell1, found := bytes.Cut(got, []byte("\n{\"cell\":1,"))
	_, cell1, _ = bytes.Cut(cell1, []byte("\n"))
	if !found || len(want) == 0 || !bytes.Equal(cell1, want) {
		t.Errorf("cell 1 of -at 5,10 recorded %d bytes (header found: %v), -at 10 alone %d: not the same",
			len(cell1), found, len(want))
	}
}

// TestLocalStagingAccepted: -storage local is a storage mode like the others.
func TestLocalStagingAccepted(t *testing.T) {
	out, _, err := ckptsim("-workload", "ring", "-n", "4", "-group", "2", "-iters", "100",
		"-footprint", "20", "-storage", "local", "-at", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte("storage:               local\n")) {
		t.Errorf("report does not name the storage mode:\n%s", out)
	}
}

// TestNearZeroDegradeRuns: a degrade window whose factor puts a checkpoint
// write's completion past the end of simulated time stalls the write for the
// window, as a merely tiny factor does, instead of failing the run: every
// row exits 0 and reports the wall time of the first.
func TestNearZeroDegradeRuns(t *testing.T) {
	var want string
	for _, factor := range []string{"1e-9", "1e-11", "1e-300"} {
		out, _, err := ckptsim("-workload", "ring", "-n", "4", "-iters", "20", "-interval", "0.5",
			"-faults", "degrade@1s+1s:factor="+factor)
		if err != nil {
			t.Fatalf("factor=%s: %v\n%s", factor, err, out)
		}
		_, wall, _ := strings.Cut(string(out), "wall time to finish:")
		wall, _, _ = strings.Cut(wall, "\n")
		if want == "" {
			want = wall
		} else if wall != want {
			t.Errorf("factor=%s: wall time to finish%s, want%s", factor, wall, want)
		}
	}
}

// TestDefaultGroupFitsSmallJobs: the default -group 8 shrinks to a job of
// fewer ranks under every protocol, while an explicit -group past the job is
// still rejected.
func TestDefaultGroupFitsSmallJobs(t *testing.T) {
	small := []string{"-workload", "ring", "-n", "4", "-iters", "20", "-at", "0.5"}
	for _, proto := range []string{"group", "wholejob", "uncoord"} {
		if _, _, err := ckptsim(append(small, "-protocol", proto)...); err != nil {
			t.Errorf("-protocol %s: %v", proto, err)
		}
	}
	if _, _, err := ckptsim(append(small, "-group", "8")...); err == nil || err.Error() != "-group 8 exceeds the job size 4" {
		t.Errorf("explicit -group 8 on 4 ranks: %v", err)
	}
}

// TestDefaultCommFitsSmallJobs: the default -comm 8 shrinks to a job of
// fewer ranks, and the report names the group size that ran.
func TestDefaultCommFitsSmallJobs(t *testing.T) {
	out, _, err := ckptsim("-workload", "commgroups", "-n", "4", "-iters", "20", "-footprint", "10", "-at", "0.5")
	if err != nil || !bytes.Contains(out, []byte("workload:              commgroups(n=4,comm=4) (4 ranks)\n")) {
		t.Errorf("commgroups on 4 ranks with the default -comm: %v\n%s", err, out)
	}
}

// TestProtocolCrashExports: under every protocol a crashed run recovers,
// reports its one failure, and writes both trace exports as valid JSON, so
// the sinks' one detail formatter runs under each protocol. The whole-job
// spelling and -protocol group -group 0 run the same simulation: they print
// the same protocol: line and write the same -trace-json bytes once each
// run's protocol tag is removed.
func TestProtocolCrashExports(t *testing.T) {
	var lines, traces [][]byte // of the two whole-job runs
	for _, proto := range [][]string{{"group"}, {"wholejob"}, {"group", "-group", "0"}, {"uncoord"}} {
		name := strings.Join(proto, " ")
		dir := t.TempDir()
		jsonl, chrome := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "trace.json")
		args := append([]string{"-workload", "ring", "-n", "8", "-iters", "200", "-interval", "2",
			"-faults", "crash@3s", "-trace-json", jsonl, "-trace-chrome", chrome, "-protocol"}, proto...)
		out, _, err := ckptsim(args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Contains(out, []byte("failures survived:     1\n")) {
			t.Errorf("%s: want one failure survived, got:\n%s", name, out)
		}
		trace, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
			if !json.Valid(line) {
				t.Fatalf("%s: trace line %d is not JSON: %s", name, i+1, line)
			}
		}
		if data, err := os.ReadFile(chrome); err != nil || !json.Valid(data) {
			t.Errorf("%s: Chrome trace does not parse (%d bytes, %v)", name, len(data), err)
		}
		if name == "wholejob" || name == "group -group 0" {
			_, line, _ := bytes.Cut(out, []byte("protocol:"))
			line, _, _ = bytes.Cut(line, []byte("\n"))
			lines = append(lines, line)
			traces = append(traces, bytes.ReplaceAll(trace, []byte(" ["+proto[0]+"]"), nil))
		}
	}
	if !bytes.Equal(lines[0], lines[1]) {
		t.Errorf("protocol: lines differ between the whole-job spellings: %q vs %q", lines[0], lines[1])
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Error("-trace-json differs between the whole-job spellings beyond the protocol tag")
	}
}

// TestFailedRunStillWritesTrace: a scenario run that fails (here: a central
// outage outlasting the coordinator's retry budget) exits 1 with one line and
// still leaves the requested timeline, the one file needed to see why.
func TestFailedRunStillWritesTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	_, _, err := ckptsim("-workload", "ring", "-n", "8", "-group", "2", "-iters", "200",
		"-interval", "2", "-storage", "burst", "-faults", "outage@2s+30s", "-trace-json", trace)
	if err == nil || !strings.HasSuffix(err.Error(), "consecutive times; giving up") {
		t.Errorf("want the give-up diagnostic, got %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(data) == 0 || len(lines) < 100 {
		t.Fatalf("trace of the failed run has %d lines", len(lines))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", i+1, err)
		}
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a non-empty
// pprof file, which is gzip-compressed protobuf.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if _, _, err := ckptsim("-workload", "ring", "-n", "8", "-iters", "100", "-mtbf", "20", "-interval", "8",
		"-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err == nil {
			data, err = io.ReadAll(zr)
		}
		if err != nil || len(data) == 0 {
			t.Errorf("%s: %d bytes uncompressed, %v", filepath.Base(path), len(data), err)
		}
	}
}
