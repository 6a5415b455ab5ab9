// Package figures regenerates every figure in the paper's evaluation
// section as data series: Figure 1 (storage bandwidth vs clients), Figure 3
// (checkpoint group size micro-benchmark), Figure 4 (checkpoint placement),
// Figures 5 and 6 (HPL), and Figure 7 (MotifMiner), plus the ablation
// studies for the design choices in Section 4. Both cmd/figures and the
// bench harness drive it.
//
// All generators hang off a Generator, which owns a harness.Runner. Each
// generator lays its table out, then fills it with one call to the Runner's
// worker pool in which every simulation writes its own cells; baselines are
// memoized across figures, and the tables are bit-identical at any worker
// count. Generators return errors instead of panicking.
package figures

import (
	"fmt"
	"strings"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
)

// Generator regenerates figures on a shared concurrent Runner. Reusing one
// Generator across figures shares its baseline cache, so regenerating the
// whole evaluation section never re-runs an identical baseline.
type Generator struct {
	R *harness.Runner
}

// NewGenerator returns a Generator whose Runner is bounded by workers
// (workers <= 0 selects GOMAXPROCS).
func NewGenerator(workers int) *Generator {
	return &Generator{R: harness.NewRunner(workers)}
}

// Table is a labeled grid of measurements. The JSON tags define the
// machine-readable series format emitted by cmd/figures -json.
type Table struct {
	Title     string      `json:"title"`
	Unit      string      `json:"unit"`
	ColHeader string      `json:"col_header"`
	Cols      []string    `json:"cols"`
	RowHeader string      `json:"row_header"`
	Rows      []string    `json:"rows"`
	Cells     [][]float64 `json:"cells"` // [row][col]
	Notes     []string    `json:"notes,omitempty"`
}

// Row returns a row's values by label.
func (t *Table) Row(row string) ([]float64, error) {
	for i, r := range t.Rows {
		if r == row {
			return t.Cells[i], nil
		}
	}
	return nil, fmt.Errorf("figures: no row %q in %q", row, t.Title)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteString("\n")
	width := 10
	for _, c := range t.Cols {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	head := t.RowHeader + " \\ " + t.ColHeader
	fmt.Fprintf(&b, "%-22s", head)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteString("\n")
	for ri, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s", r)
		for ci := range t.Cols {
			fmt.Fprintf(&b, "%*.2f", width, t.Cells[ri][ci])
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// fill lays t's cells out as len(t.Rows) × len(t.Cols), then runs
// simulations 0..n-1 on the generator's worker pool. Each simulation writes
// its own cells and no cell has a second writer, so the table cannot depend
// on the schedule. An error names the table and the simulation's index.
func (g *Generator) fill(name string, t *Table, n int, run func(i int) error) (*Table, error) {
	t.Cells = make([][]float64, len(t.Rows))
	for ri := range t.Cells {
		t.Cells[ri] = make([]float64, len(t.Cols))
	}
	err := g.R.ForEach(n, func(i int) error {
		if err := run(i); err != nil {
			return fmt.Errorf("figures: %s: simulation %d: %w", name, i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// tables runs each generator in turn and collects their tables.
func tables(gens ...func() (*Table, error)) ([]*Table, error) {
	var out []*Table
	for _, gen := range gens {
		t, err := gen()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// groupLabel names a checkpoint group size the way the paper's figures do.
func groupLabel(n, gs int) string {
	switch {
	case gs <= 0 || gs >= n:
		return fmt.Sprintf("All(%d)", n)
	case gs == 1:
		return "Individual(1)"
	default:
		return fmt.Sprintf("Group(%d)", gs)
	}
}

func secs(t sim.Time) float64 { return t.Seconds() }

// reductions computes the paper's "average reduction" percentages: how much
// smaller the mean effective delay of each row is compared to the first
// (regular, All) row.
func reductions(t *Table) map[string]float64 {
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	base := mean(t.Cells[0])
	out := make(map[string]float64)
	for i := 1; i < len(t.Rows); i++ {
		out[t.Rows[i]] = 100 * (base - mean(t.Cells[i])) / base
	}
	return out
}

// maxReduction returns the largest single-cell reduction of any grouped row
// against the All row at the same issuance time, with the row and column
// where it occurs.
func maxReduction(t *Table) (pct float64, row, col string) {
	for ri := 1; ri < len(t.Rows); ri++ {
		for ci := range t.Cols {
			base := t.Cells[0][ci]
			if base <= 0 {
				continue
			}
			r := 100 * (base - t.Cells[ri][ci]) / base
			if r > pct {
				pct, row, col = r, t.Rows[ri], t.Cols[ci]
			}
		}
	}
	return pct, row, col
}
