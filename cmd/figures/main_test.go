package main

import (
	"bytes"
	"errors"
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
		{"unknown protocol", []string{"-only", "extprotocols", "-protocol", "group,chandy"}},
		{"protocol without extprotocols", []string{"-only", "fig1", "-protocol", "uncoord"}},
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
