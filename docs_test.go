package gbcr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	// changesEntryRE is one numbered CHANGES.md entry, one line.
	changesEntryRE = regexp.MustCompile(`(?m)^(- \*\*PR (\d+).*)$`)
)

// TestDocsResolve keeps the prose from outliving the code: in README.md,
// DESIGN.md and EXPERIMENTS.md every back-quoted pkg.Ident (or
// pkg.Type.Member) whose pkg is a first-party package must be declared in the
// tree — or be a per_layer metric of BENCHMARK.json — and every -flag
// following ckptsim, figures or gbcrlint must be one that command defines.
func TestDocsResolve(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	// "package p", "p.Name", "p.Type.Member", "type p.Name", metric names,
	// "cmd -flag", and " -flag" for a flag of any command.
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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		checkFlags := func(tool, args string) {
			for _, m := range docFlagRE.FindAllStringSubmatch(args, -1) {
				if !known[tool+" -"+m[1]] {
					t.Errorf("%s: `%s`: no flag -%s in cmd/%s", doc, strings.TrimSpace(args), m[1], tool)
				}
			}
		}
		// Odd segments of a split on back quotes are code, inline or fenced.
		for i, code := range strings.Split(read(doc), "`") {
			if i%2 == 0 {
				continue
			}
			for _, m := range docIdentRE.FindAllStringSubmatch(code, -1) {
				pkg, name, member := m[1], m[2], m[3]
				switch {
				case !known["package "+pkg] || known[m[0]] || name == "go" || name == "txt": // not ours; declared or a metric; a file
				case !known[pkg+"."+name]:
					t.Errorf("%s: `%s`: package %s declares no %s", doc, m[0], pkg, name)
				case member != "" && known["type "+pkg+"."+name]:
					t.Errorf("%s: `%s`: %s.%s has no field or method %s", doc, m[0], pkg, name, member)
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
	}
}

// TestDocsBudget holds the kept documents to their size caps: every
// CHANGES.md entry numbered 31 or later is at most 1,500 bytes, ROADMAP.md
// at most 32 KiB, and DESIGN.md at most 90,000 bytes.
func TestDocsBudget(t *testing.T) {
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, m := range changesEntryRE.FindAllStringSubmatch(string(changes), -1) {
		if pr, err := strconv.Atoi(m[2]); err == nil && pr >= 31 {
			entries++
			if len(m[1]) > 1500 {
				t.Errorf("CHANGES.md: entry %d is %d bytes, over 1,500", pr, len(m[1]))
			}
		}
	}
	if entries == 0 {
		t.Error("CHANGES.md: no entry numbered 31 or later")
	}
	for _, doc := range []struct {
		path string
		max  int64
	}{{"ROADMAP.md", 32 << 10}, {"DESIGN.md", 90000}} {
		fi, err := os.Stat(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > doc.max {
			t.Errorf("%s is %d bytes, over %d", doc.path, fi.Size(), doc.max)
		}
	}
}
