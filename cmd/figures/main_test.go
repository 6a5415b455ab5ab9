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
)

// bin is the figures binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "figures-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building figures: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRejectedInput pins the CLI contract for input figures cannot honour:
// exit status 1, nothing on stdout, and exactly one "figures: ..." line on
// stderr — before any figure is generated, and never a flag silently ignored.
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
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("want exit status 1, got %v\nstderr: %s", err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "figures: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Errorf("want one \"figures: ...\" line on stderr, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a non-empty
// pprof file, which is gzip-compressed protobuf.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if out, err := exec.Command(bin, "-only", "fig1", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput(); err != nil {
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

// TestWorkersInvisible: the pool width changes neither the tables nor the
// -metrics-json aggregate. Fig 3's 25 cells all feed the aggregate, so
// workers 1 and 2 must give the same stdout and the same metrics file.
func TestWorkersInvisible(t *testing.T) {
	dir := t.TempDir()
	var outs, metrics [2][]byte
	for i, workers := range []string{"1", "2"} {
		path := filepath.Join(dir, "m"+workers+".json")
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-only", "fig3", "-json", "-metrics-json", path, "-workers", workers)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-workers %s: %v\n%s", workers, err, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		outs[i], metrics[i] = stdout.Bytes(), data
	}
	if len(outs[0]) == 0 || !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("stdout differs between -workers 1 and 2 (%d vs %d bytes)", len(outs[0]), len(outs[1]))
	}
	if len(metrics[0]) == 0 || !bytes.Equal(metrics[0], metrics[1]) {
		t.Errorf("-metrics-json differs between -workers 1 and 2:\n%s\nvs\n%s", metrics[0], metrics[1])
	}
}
