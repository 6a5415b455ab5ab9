package gbcr

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var (
	docIdentRE = regexp.MustCompile(`\b([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	docToolRE  = regexp.MustCompile(`\b(ckptsim|figures|gbcrlint)\b([^\n|;&#>]*)`)
	docFlagRE  = regexp.MustCompile(`(?:^|\s)-([A-Za-z][\w-]*)`)
	flagDefRE  = regexp.MustCompile(`flag\.\w+\("([\w-]+)"|"--?([a-z][\w-]*)"`)
	metricRE   = regexp.MustCompile(`"name": "(\w+\.\w+)"`)
	plannedRE  = regexp.MustCompile("[^`\n]+")
	// changesEntryRE is one numbered CHANGES.md entry, one line.
	changesEntryRE = regexp.MustCompile(`(?m)^(- \*\*PR (\d+).*)$`)
)

// TestDocsResolve keeps the prose from outliving the code: in README.md,
// DESIGN.md, EXPERIMENTS.md and ROADMAP.md every back-quoted pkg.Ident (or
// pkg.Type.Member) whose pkg is a first-party package must be declared in the
// tree — or be a per_layer metric of BENCHMARK.json — and every -flag
// following ckptsim, figures or gbcrlint must be one that command defines. A
// line that contains "planned:" names what is not built yet and is not
// checked.
func TestDocsResolve(t *testing.T) {
	known := docsKnown(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range unresolved(known, string(data)) {
			t.Errorf("%s: %s", doc, msg)
		}
	}
}

// TestDocsPlannedMarker shows the exemption is per line: an unknown flag
// fails unless its own line says "planned:".
func TestDocsPlannedMarker(t *testing.T) {
	known := docsKnown(t)
	for _, c := range []struct {
		text string
		errs int
	}{
		{"Run `ckptsim -nosuchflag` and `obs.NoSuchThing`.\n", 2},
		{"Not built yet (planned: `ckptsim -nosuchflag`, `obs.NoSuchThing`).\n", 0},
		{"planned: `ckptsim -nosuchflag`\nbut here `ckptsim -nosuchflag` runs.\n", 1},
		{"`ckptsim -workload ring -n 8` and `obs.Kind`\n", 0},
	} {
		if got := unresolved(known, c.text); len(got) != c.errs {
			t.Errorf("%q: %d errors %q, want %d", c.text, len(got), got, c.errs)
		}
	}
}

// docsKnown collects what a document may name: "package p", "p.Name",
// "p.Type.Member", "type p.Name", metric names, "cmd -flag", and " -flag"
// for a flag of any command.
func docsKnown(t *testing.T) map[string]bool {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	known := map[string]bool{" -race": true, " -count": true} // the go tool's own, mentioned by themselves
	for _, m := range metricRE.FindAllStringSubmatch(read("BENCHMARK.json"), -1) {
		known[m[1]] = true
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		known["package "+pkg] = true
		pkg += "."
		var typ string
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				name := n.Name.Name
				if n.Recv != nil {
					name = strings.TrimPrefix(types.ExprString(n.Recv.List[0].Type), "*") + "." + name
				}
				known[pkg+name] = true
				return false
			case *ast.ValueSpec:
				for _, name := range n.Names {
					known[pkg+name.Name] = true
				}
			case *ast.TypeSpec:
				typ = pkg + n.Name.Name
				known[typ], known["type "+typ] = true, true
			case *ast.Field: // of the struct or interface last entered; nesting only adds names
				for _, name := range n.Names {
					known[typ+"."+name.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"ckptsim", "figures", "gbcrlint"} {
		for _, m := range flagDefRE.FindAllStringSubmatch(read(filepath.Join("cmd", tool, "main.go")), -1) {
			known[tool+" -"+m[1]+m[2]], known[" -"+m[1]+m[2]] = true, true
		}
	}
	return known
}

// unresolved returns one message for each name or flag in text's code spans
// that known lacks. A line that contains "planned:" is blanked first, back
// quotes kept, so the spans after it still pair up.
func unresolved(known map[string]bool, text string) []string {
	lines := strings.SplitAfter(text, "\n")
	for i, line := range lines {
		if strings.Contains(line, "planned:") {
			lines[i] = plannedRE.ReplaceAllString(line, " ")
		}
	}
	var msgs []string
	checkFlags := func(tool, args string) {
		for _, m := range docFlagRE.FindAllStringSubmatch(args, -1) {
			if !known[tool+" -"+m[1]] {
				msgs = append(msgs, fmt.Sprintf("`%s`: no flag -%s in cmd/%s", strings.TrimSpace(args), m[1], tool))
			}
		}
	}
	// Odd segments of a split on back quotes are code, inline or fenced.
	for i, code := range strings.Split(strings.Join(lines, ""), "`") {
		if i%2 == 0 {
			continue
		}
		for _, m := range docIdentRE.FindAllStringSubmatch(code, -1) {
			pkg, name, member := m[1], m[2], m[3]
			switch {
			case !known["package "+pkg] || known[m[0]] || name == "go" || name == "txt": // not ours; declared or a metric; a file
			case !known[pkg+"."+name]:
				msgs = append(msgs, fmt.Sprintf("`%s`: package %s declares no %s", m[0], pkg, name))
			case member != "" && known["type "+pkg+"."+name]:
				msgs = append(msgs, fmt.Sprintf("`%s`: %s.%s has no field or method %s", m[0], pkg, name, member))
			}
		}
		code = strings.ReplaceAll(strings.ReplaceAll(code, "\\\n", " "), "internal/figures", "")
		if strings.HasPrefix(code, "-") {
			checkFlags("", code)
		}
		for _, m := range docToolRE.FindAllStringSubmatch(code, -1) {
			checkFlags(m[1], m[2])
		}
	}
	return msgs
}

// TestDocsBudget holds every document a reader starts from to its size cap,
// and every numbered CHANGES.md entry to 1,500 bytes.
func TestDocsBudget(t *testing.T) {
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := changesEntryRE.FindAllStringSubmatch(string(changes), -1)
	if len(entries) == 0 {
		t.Error("CHANGES.md: no numbered entry")
	}
	for _, m := range entries {
		if len(m[1]) > 1500 {
			t.Errorf("CHANGES.md: entry %s is %d bytes, over 1,500", m[2], len(m[1]))
		}
	}
	for _, doc := range []struct {
		path string
		max  int64
	}{{"DESIGN.md", 40000}, {"README.md", 26000}, {"CHANGES.md", 64 << 10}, {"ROADMAP.md", 32 << 10}} {
		fi, err := os.Stat(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > doc.max {
			t.Errorf("%s is %d bytes, over %d", doc.path, fi.Size(), doc.max)
		}
	}
}

// TestExperimentsQuoteFigures holds EXPERIMENTS.md's tables to the binary:
// every table row whose cells after the label are all numbers (bold marks
// stripped) must appear as a contiguous run of the numbers in some row of
// docs/figures.txt, which CI regenerates and diffs.
func TestExperimentsQuoteFigures(t *testing.T) {
	exp, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	figs, err := os.ReadFile("docs/figures.txt")
	if err != nil {
		t.Fatal(err)
	}
	numeric := func(s string) bool { _, err := strconv.ParseFloat(s, 64); return err == nil }
	var runs [][]string // the numbers of each docs/figures.txt row
	for _, line := range strings.Split(string(figs), "\n") {
		runs = append(runs, slices.DeleteFunc(strings.Fields(line), func(f string) bool { return !numeric(f) }))
	}
	quoted, rows := 0, 0
	inBody := false // past a table's |---| separator
	for _, line := range strings.Split(string(exp), "\n") {
		if !strings.HasPrefix(line, "|") {
			inBody = false
			continue
		}
		cells := strings.Split(strings.Trim(strings.ReplaceAll(line, "**", ""), "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.HasPrefix(cells[0], "---") {
			inBody = true
			continue
		}
		nums := cells[1:]
		if !inBody || len(nums) == 0 || slices.ContainsFunc(nums, func(s string) bool { return !numeric(s) }) {
			continue
		}
		rows++
		quoted += len(nums)
		if !slices.ContainsFunc(runs, func(run []string) bool {
			for i := 0; i+len(nums) <= len(run); i++ {
				if slices.Equal(run[i:i+len(nums)], nums) {
					return true
				}
			}
			return false
		}) {
			t.Errorf("EXPERIMENTS.md row %q: %v is not a run of numbers in any docs/figures.txt row", cells[0], nums)
		}
	}
	if rows == 0 {
		t.Fatal("EXPERIMENTS.md has no all-numeric table row")
	}
	t.Logf("%d rows, %d numbers quoted", rows, quoted)
}
