package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRunSuiteJSONRoundTrip runs the suite over the fixture module, checks
// the expected findings surface, and round-trips them through the -json
// encoding: every field must survive marshal/unmarshal unchanged, and a
// clean run must encode as "[]", never "null".
func TestRunSuiteJSONRoundTrip(t *testing.T) {
	diags, err := runSuite(filepath.Join("testdata", "mod"), "lintfixture", nil)
	if err != nil {
		t.Fatalf("runSuite: %v", err)
	}
	var analyzers []string
	for _, d := range diags {
		analyzers = append(analyzers, d.Analyzer)
		if file := filepath.ToSlash(d.File); !strings.HasSuffix(file, "testdata/mod/pkg/pkg.go") &&
			!strings.HasSuffix(file, "testdata/mod/internal/lib/lib.go") {
			t.Errorf("finding in unexpected file %q", d.File)
		}
		if d.Line <= 0 || d.Col <= 0 {
			t.Errorf("finding missing position: %+v", d)
		}
		if d.Message == "" {
			t.Errorf("finding missing message: %+v", d)
		}
	}
	sort.Strings(analyzers)
	if want := []string{"errpropagation", "unused"}; !reflect.DeepEqual(analyzers, want) {
		t.Fatalf("analyzers = %v, want %v", analyzers, want)
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		return diags[i].File < diags[j].File
	}) {
		t.Errorf("findings not ordered by position: %+v", diags)
	}
	// unused is a whole-program check: a run narrowed to some packages
	// cannot see every reference, so it must not report.
	narrowed, err := runSuite(filepath.Join("testdata", "mod"), "lintfixture", []string{"./internal/..."})
	if err != nil || len(narrowed) != 0 {
		t.Errorf("narrowed run = %+v, %v; want no findings", narrowed, err)
	}

	data, err := json.Marshal(diags)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []diagJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(diags, back) {
		t.Errorf("JSON round trip changed findings:\n got %+v\nwant %+v", back, diags)
	}

	// A run with no findings must still encode as an empty array: consumers
	// parse the artifact unconditionally.
	none, err := runSuite(filepath.Join("testdata", "mod"), "lintfixture", []string{"clean"})
	if err != nil {
		t.Fatalf("runSuite (clean): %v", err)
	}
	data, err = json.Marshal(none)
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	if string(data) != "[]" {
		t.Errorf("empty run encodes as %s, want []", data)
	}

	// A pattern matching no packages is an operational error, not a clean
	// run: exit 0 is reserved for packages that were actually analyzed.
	if _, err := runSuite(filepath.Join("testdata", "mod"), "lintfixture", []string{"nomatch"}); err == nil {
		t.Errorf("runSuite with unmatched pattern succeeded, want error")
	}
}

// TestLiveTreeClean runs the whole suite, unused included, over this
// module: the tree the analyzers guard carries no finding.
func TestLiveTreeClean(t *testing.T) {
	root, module, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := runSuite(root, module, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
}
