package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/contract.txt's digests from the current outputs")

// manifest is the file TestContract reads; see its header for the format.
const manifest = "testdata/contract.txt"

// digestKeys are the outputs a row pins, in the order a row lists them:
// stdout, stderr (only when the run wrote some: the line main prints for a
// failed run), and the file of each export flag the row passes.
var digestKeys = []string{"stdout", "stderr", "trace-json", "trace-chrome", "metrics-json"}

// exportFlags are the flags that name a file the run writes.
var exportFlags = digestKeys[2:]

var hexDigest = regexp.MustCompile(`^[0-9a-f]{64}$`)

// row is one line of the manifest: a ckptsim argument list and the sha256
// of each output it produces. A row with no digests yet is unpinned.
type row struct {
	line   int // in the manifest, from 1
	args   []string
	digest map[string]string
}

// parseManifest reads the manifest's rows, skipping blank lines and lines
// that start with '#'. A malformed line, or a row whose arguments repeat an
// earlier row's, is an error.
func parseManifest(text string) ([]row, error) {
	var rows []row
	seen := make(map[string]int) // argument list -> its line
	for i, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseRow(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", manifest, i+1, err)
		}
		key := strings.Join(r.args, " ")
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("%s:%d: repeats the row on line %d", manifest, i+1, prev)
		}
		r.line, seen[key] = i+1, i+1
		rows = append(rows, r)
	}
	return rows, nil
}

// parseRow reads "<args> | <key>=<sha256> ...": the arguments separated by
// single spaces, unquoted, so no argument can hold a space. An export flag
// is written -flag=file, and the row must pin stdout and each export file
// it asks for, and nothing else but stderr.
func parseRow(line string) (row, error) {
	argText, digests, pinned := strings.Cut(line, " | ")
	r := row{args: strings.Split(argText, " "), digest: make(map[string]string)}
	want := []string{"stdout"}
	for _, a := range r.args {
		name, _, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		switch {
		case a == "":
			return r, errors.New("empty argument: separate arguments by one space")
		case strings.ContainsAny(a, "'\"\\|\t"):
			return r, fmt.Errorf("argument %q: arguments are not quoted, so none may hold a space", a)
		case slices.Contains(exportFlags, name) && !hasValue:
			return r, fmt.Errorf("argument %q: write an export as -%s=file", a, name)
		case slices.Contains(exportFlags, name):
			want = append(want, name)
		}
	}
	if !pinned {
		return r, nil
	}
	for _, d := range strings.Split(digests, " ") {
		key, sum, _ := strings.Cut(d, "=")
		switch {
		case !hexDigest.MatchString(sum):
			return r, fmt.Errorf("digest %q: want key=<64 hex digits>", d)
		case !slices.Contains(want, key) && key != "stderr":
			return r, fmt.Errorf("digest %q: the row writes no %s", d, key)
		case r.digest[key] != "":
			return r, fmt.Errorf("digest %q: %s is pinned twice", d, key)
		}
		r.digest[key] = sum
	}
	for _, key := range want {
		if r.digest[key] == "" {
			return r, fmt.Errorf("no digest for %s", key)
		}
	}
	return r, nil
}

// String formats r as a manifest line, digests in digestKeys order.
func (r row) String() string {
	s := strings.Join(r.args, " ")
	sep := " | "
	for _, key := range digestKeys {
		if sum := r.digest[key]; sum != "" {
			s += sep + key + "=" + sum
			sep = " "
		}
	}
	return s
}

// replay is the shell command that reruns r from the module root.
func (r row) replay() string {
	args := make([]string, len(r.args))
	for i, a := range r.args {
		args[i] = a
		if strings.ContainsAny(a, ";&()<>*?$") {
			args[i] = "'" + a + "'"
		}
	}
	return "go run ./cmd/ckptsim " + strings.Join(args, " ")
}

// outputs runs r in a child process — this test binary running main — with
// its export files in dir, and returns the bytes of each output digestKeys
// names that the run produced. A child, not run in this process: gob numbers
// types per process in the order they are first encoded, a checkpoint
// image's length depends on those numbers, and so an in-process run's trace
// would depend on which rows ran before it or beside it.
func (r row) outputs(dir string) (map[string][]byte, error) {
	args := slices.Clone(r.args)
	files := make(map[string]string) // export flag -> its file
	for i, a := range args {
		name, path, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if slices.Contains(exportFlags, name) {
			files[name] = filepath.Join(dir, path)
			args[i] = "-" + name + "=" + files[name]
		}
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil && stderr.Len() == 0 {
		return nil, err
	}
	out := map[string][]byte{"stdout": stdout.Bytes()}
	if stderr.Len() > 0 {
		out["stderr"] = stderr.Bytes()
	}
	for name, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out[name] = data
	}
	return out, nil
}

// TestContract is the command's behavioural contract: it runs every row of
// testdata/contract.txt through ckptsim and compares the sha256 of stdout,
// of stderr and of every export file with the row's. A mismatch names the
// row, prints the command that replays it, and leaves the bytes it got in a
// directory it prints. -update rewrites the digests (and pins new rows), so
// a re-pin shows in the diff.
func TestContract(t *testing.T) {
	text, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseManifest(string(text))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("rows", func(t *testing.T) {
		for i := range rows {
			r := &rows[i]
			t.Run(fmt.Sprintf("line%d", r.line), func(t *testing.T) {
				t.Parallel()
				dir, err := os.MkdirTemp("", fmt.Sprintf("ckptsim-contract-line%d-", r.line))
				if err != nil {
					t.Fatal(err)
				}
				out, err := r.outputs(dir)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[string]string)
				for key, data := range out {
					sum := sha256.Sum256(data)
					got[key] = hex.EncodeToString(sum[:])
				}
				var diff []string
				for _, key := range digestKeys {
					if got[key] != r.digest[key] {
						diff = append(diff, key)
					}
				}
				switch {
				case *update:
					r.digest = got
				case len(diff) > 0:
					for _, key := range digestKeys[:2] { // the export files are there already
						if err := os.WriteFile(filepath.Join(dir, key), out[key], 0o644); err != nil {
							t.Error(err)
						}
					}
					t.Errorf("%s:%d: %s differ from the row; its outputs are in %s\nreplay: %s",
						manifest, r.line, strings.Join(diff, ", "), dir, r.replay())
					return
				}
				os.RemoveAll(dir)
			})
		}
	})
	if !*update || t.Failed() {
		return
	}
	lines := strings.Split(string(text), "\n")
	for _, r := range rows {
		lines[r.line-1] = r.String()
	}
	if err := os.WriteFile(manifest, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRejects: the reader refuses what it cannot hold exactly, so a
// row never means something other than what it says.
func TestManifestRejects(t *testing.T) {
	sum := strings.Repeat("0a", 32)
	for _, c := range []struct{ name, text string }{
		{"digest not hex", "-workload hpl | stdout=xyz\n"},
		{"digest without a key", "-workload hpl | " + sum + "\n"},
		{"stdout missing", "-workload ring -trace-json=t.jsonl | trace-json=" + sum + "\n"},
		{"export not pinned", "-workload ring -trace-json=t.jsonl | stdout=" + sum + "\n"},
		{"export the row does not write", "-workload hpl | stdout=" + sum + " metrics-json=" + sum + "\n"},
		{"export path as its own argument", "-workload ring -trace-json t.jsonl\n"},
		{"key pinned twice", "-workload hpl | stdout=" + sum + " stdout=" + sum + "\n"},
		{"duplicate row", "-workload hpl -at 5 | stdout=" + sum + "\n# between\n-workload hpl -at 5\n"},
		{"two spaces", "-workload  hpl\n"},
		{"argument holding a space", "-workload ring -faults 'crash@1s; memloss@2s'\n"},
	} {
		if rows, err := parseManifest(c.text); err == nil {
			t.Errorf("%s: accepted as %d rows", c.name, len(rows))
		}
	}
	r := row{args: []string{"-workload", "ring", "-faults", "crash@1s;memloss@2s", "-trace-json=t.jsonl"},
		digest: map[string]string{"trace-json": sum, "stdout": sum}}
	if rows, err := parseManifest(r.String()); err != nil || len(rows) != 1 || rows[0].String() != r.String() {
		t.Errorf("%q does not read back: %v, %v", r, rows, err)
	}
}
