package figures

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestFigureTablesGolden pins the default-path group-based figure tables
// byte-for-byte: Fig1 (storage scaling), Fig3 (group-size sweep), and Fig5
// (application checkpoint times) must render and marshal to exactly the
// committed goldens. The goldens were captured before coordination policy
// moved into package cr/protocol, and they still pin it, so they are the
// no-behavior-change proof for the figure pipeline. Regenerate deliberately with
// `go test ./internal/figures -run Golden -update`.
//
// extstaging was captured from cr's private staging path before §2.1 staging
// became a tier.Hierarchy level. It pins the rendered table only (the two
// decimals docs/figures.txt carries): the tier's fluid-flow write rounds the
// stall up where the old Sleep rounded down (1 ns), and the window is read at
// the cold tier rather than one OOB hop later at the coordinator (DESIGN
// §4.12).
func TestFigureTablesGolden(t *testing.T) {
	cases := []struct {
		name     string
		gen      func() (*Table, error)
		textOnly bool
	}{
		{"fig1", tg.Fig1, false},
		{"fig3", tg.Fig3, false},
		{"fig5", tg.Fig5, false},
		{"extstaging", tg.ExtensionStaging, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tb := mustT(t, c.gen)
			js, err := json.MarshalIndent(tb, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got := append([]byte(tb.String()), '\n')
			if !c.textOnly {
				got = append(got, js...)
				got = append(got, '\n')
			}
			checkGolden(t, c.name, got)
		})
	}
}

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output diverged from pre-refactor golden (%d vs %d bytes);\n"+
			"if the change is intentional, regenerate with -update and justify in the PR",
			name, len(got), len(want))
	}
}
