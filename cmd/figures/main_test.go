package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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

// runFigures runs the command in-process and returns what it wrote and the
// error it returned.
func runFigures(args ...string) (stdout, stderr []byte, err error) {
	var o, e bytes.Buffer
	err = run(args, &o, &e)
	return o.Bytes(), e.Bytes(), err
}

// TestExitStatus pins the statuses main gives run's errors, in a child
// process: 0 on success, 1 with exactly one "figures: ..." line on stderr
// and nothing on stdout for rejected input, 2 with the usage for a flag that
// does not parse.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
		stderr string // its prefix
	}{
		{[]string{"-only", "fig1"}, 0, "[fig1 regenerated in "},
		{[]string{"-only", "fig2"}, 1, "figures: unknown figure \"fig2\""},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined: -nosuchflag\nUsage of figures:\n"},
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
		if !strings.HasPrefix(stderr.String(), c.stderr) {
			t.Errorf("%s: stderr %q, want it to start with %q", name, stderr.String(), c.stderr)
		}
		if c.status == 1 && (strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0) {
			t.Errorf("%s: want one stderr line and no stdout, got %q and %q", name, stderr.String(), stdout.String())
		}
	}
}

// TestRejectedInput pins the CLI contract for input figures cannot honour:
// an error of one line (main prints it as "figures: ..." and exits 1), and
// nothing on stdout or stderr — before any figure is generated, and never a
// flag silently ignored.
func TestRejectedInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown figure", []string{"-only", "fig1,fig2"}},
		{"negative workers", []string{"-only", "fig1", "-workers", "-1"}},
		{"profile in a missing directory", []string{"-only", "fig1", "-cpuprofile", filepath.Join(t.TempDir(), "missing", "c.out")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runFigures(tc.args...)
			if err == nil || errors.Is(err, cli.ErrUsage) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("want a one-line error other than a usage one, got %v", err)
			}
			if len(stdout)+len(stderr) != 0 {
				t.Errorf("rejected run wrote %q to stdout and %q to stderr", stdout, stderr)
			}
		})
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a non-empty
// pprof file, which is gzip-compressed protobuf.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if _, _, err := runFigures("-only", "fig1", "-cpuprofile", cpu, "-memprofile", mem); err != nil {
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

// TestWorkersInvisible: the pool width changes neither the tables nor the
// -metrics-json aggregate. Fig 3's 25 cells all feed the aggregate, so
// workers 1 and 2 must give the same stdout and the same metrics file.
func TestWorkersInvisible(t *testing.T) {
	dir := t.TempDir()
	var outs, metrics [2][]byte
	for i, workers := range []string{"1", "2"} {
		path := filepath.Join(dir, "m"+workers+".json")
		stdout, _, err := runFigures("-only", "fig3", "-json", "-metrics-json", path, "-workers", workers)
		if err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		outs[i], metrics[i] = stdout, data
	}
	if len(outs[0]) == 0 || !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("stdout differs between -workers 1 and 2 (%d vs %d bytes)", len(outs[0]), len(outs[1]))
	}
	if len(metrics[0]) == 0 || !bytes.Equal(metrics[0], metrics[1]) {
		t.Errorf("-metrics-json differs between -workers 1 and 2:\n%s\nvs\n%s", metrics[0], metrics[1])
	}
}
