package gen

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cognicryptgen/analysis"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

func fileCount(fset *token.FileSet) int {
	n := 0
	fset.Iterate(func(*token.File) bool { n++; return true })
	return n
}

// TestPipelineReleasesFiles: a long-lived process checks a stream of new
// sources against one shared FileSet, so every path that parses one must
// take its files out again. After fresh verified generations, analyses,
// a generation into a package directory, a directory analysis, and two
// templates that fail (one to parse, one to type-check), the set holds
// exactly the files it held before, and the type error still names its
// file, line and column.
func TestPipelineReleasesFiles(t *testing.T) {
	rs := rules.MustLoad()
	g, err := New(rs, "", Options{Paths: NewPathCache(), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.New(rs, "", analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	uc, err := templates.ByID(11)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	// One of each first, so every package they import is in the universe
	// (and so in the FileSet for good) before counting.
	warm, err := g.GenerateFile(uc.File, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeSource("warm.go", warm.Output); err != nil {
		t.Fatal(err)
	}
	fset := g.checker.Fset
	before := fileCount(fset)

	const n = 20
	for i := 0; i < n; i++ {
		res, err := g.GenerateFile(uc.File, renamedVariant(t, src, fmt.Sprintf("F%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.AnalyzeSource(fmt.Sprintf("out%d.go", i), res.Output)
		if err != nil {
			t.Fatal(err)
		}
		if rep.HasFindings() {
			t.Fatalf("generated output has findings: %v", rep.Findings)
		}
	}
	dir := t.TempDir()
	if _, _, err := g.GenerateInto(dir, uc.File, src); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package p\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeDir(dir); err == nil {
		t.Fatal("AnalyzeDir accepted a package with a file that does not parse")
	}
	if _, err := g.GenerateFile("broken.go", "package p\nfunc {"); err == nil {
		t.Fatal("a template that does not parse generated")
	}
	_, err = g.GenerateFile("typo.go", "package p\n\nvar x int = \"s\"\n")
	if err == nil {
		t.Fatal("a template that does not type-check generated")
	}
	if !strings.Contains(err.Error(), "typo.go:3:13: ") {
		t.Errorf("type error lost its position after release: %v", err)
	}

	if after := fileCount(fset); after != before {
		t.Errorf("shared FileSet holds %d files, %d before: %d leaked", after, before, after-before)
	}
}
