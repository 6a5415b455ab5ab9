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
	"strings"
	"testing"
)

// bin is the ckptsim binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ckptsim-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "ckptsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building ckptsim: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRejectedInput pins the CLI contract for malformed input: exit status
// 1, nothing on stdout, and exactly one "ckptsim: ..." line on stderr —
// never a panic, a stack overflow, or a run that reports garbage.
func TestRejectedInput(t *testing.T) {
	ring := []string{"-workload", "ring", "-n", "8", "-iters", "50"}
	out := t.TempDir() // no rejected run may leave a file here
	exports := []string{"-trace-json", filepath.Join(out, "t.jsonl"),
		"-trace-chrome", filepath.Join(out, "t.json"), "-metrics-json", filepath.Join(out, "m.json")}
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("want exit status 1, got %v\nstderr: %s", err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "ckptsim: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Errorf("want one \"ckptsim: ...\" line on stderr, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run wrote to stdout: %q", stdout.String())
			}
			if files, err := os.ReadDir(out); err != nil || len(files) != 0 {
				t.Errorf("rejected run left files %v (%v)", files, err)
			}
		})
	}
}

// TestMultiCellOutputsIndependentOfWidth runs the same -at list on a one-
// and a four-wide worker pool: every merged export must be byte-identical.
func TestMultiCellOutputsIndependentOfWidth(t *testing.T) {
	files := []string{"trace.jsonl", "trace.json", "metrics.json"}
	run := func(gomaxprocs string) (stdout []byte, exports [][]byte) {
		dir := t.TempDir()
		cmd := exec.Command(bin, "-workload", "commgroups", "-n", "8", "-comm", "4", "-group", "4",
			"-iters", "250", "-footprint", "20", "-at", "5,10,15,20",
			"-trace-json", filepath.Join(dir, files[0]),
			"-trace-chrome", filepath.Join(dir, files[1]),
			"-metrics-json", filepath.Join(dir, files[2]))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+gomaxprocs)
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v", gomaxprocs, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatalf("GOMAXPROCS=%s: %s is empty", gomaxprocs, f)
			}
			exports = append(exports, data)
		}
		return stdout, exports
	}
	out1, exp1 := run("1")
	out4, exp4 := run("4")
	if !bytes.Equal(out1, out4) {
		t.Errorf("stdout differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", out1, out4)
	}
	for i, f := range files {
		if !bytes.Equal(exp1[i], exp4[i]) {
			t.Errorf("%s differs between GOMAXPROCS=1 and 4 (%d vs %d bytes)", f, len(exp1[i]), len(exp4[i]))
		}
	}
}

// TestLocalStagingAccepted: -storage local is a storage mode like the others.
func TestLocalStagingAccepted(t *testing.T) {
	out, err := exec.Command(bin, "-workload", "ring", "-n", "4", "-group", "2", "-iters", "100",
		"-footprint", "20", "-storage", "local", "-at", "1").Output()
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
		out, err := exec.Command(bin, "-workload", "ring", "-n", "4", "-iters", "20", "-interval", "0.5",
			"-faults", "degrade@1s+1s:factor="+factor).CombinedOutput()
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
		if out, err := exec.Command(bin, append(small, "-protocol", proto)...).CombinedOutput(); err != nil {
			t.Errorf("-protocol %s: %v\n%s", proto, err, out)
		}
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, append(small, "-group", "8")...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil || stderr.String() != "ckptsim: -group 8 exceeds the job size 4\n" {
		t.Errorf("explicit -group 8 on 4 ranks: %v, stderr %q", err, stderr.String())
	}
}

// TestDefaultCommFitsSmallJobs: the default -comm 8 shrinks to a job of
// fewer ranks, and the report names the group size that ran.
func TestDefaultCommFitsSmallJobs(t *testing.T) {
	out, err := exec.Command(bin, "-workload", "commgroups", "-n", "4", "-iters", "20", "-footprint", "10", "-at", "0.5").CombinedOutput()
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
		out, err := exec.Command(bin, args...).Output()
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
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-workload", "ring", "-n", "8", "-group", "2", "-iters", "200",
		"-interval", "2", "-storage", "burst", "-faults", "outage@2s+30s", "-trace-json", trace)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v\nstderr: %s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "consecutive times; giving up") || strings.Count(msg, "\n") != 1 {
		t.Errorf("want the one-line give-up diagnostic, got %q", msg)
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
	if out, err := exec.Command(bin, "-workload", "ring", "-n", "8", "-iters", "100", "-mtbf", "20", "-interval", "8",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
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
