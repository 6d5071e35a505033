package srccheck

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestModuleRootFromSubdir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(wd, root) {
		t.Errorf("root %q not a prefix of wd %q", root, wd)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("no go.mod at reported root: %v", err)
	}
}

func TestModuleRootNotFound(t *testing.T) {
	if _, err := ModuleRoot(t.TempDir()); err == nil {
		t.Fatal("expected failure outside the module")
	}
}

func TestImportModulePackage(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := c.ImportPackage(ModulePath + "/gca")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name() != "gca" {
		t.Errorf("package name %q", pkg.Name())
	}
	if pkg.Scope().Lookup("Cipher") == nil {
		t.Error("Cipher not exported")
	}
	// Cached: second import returns the same object.
	pkg2, err := c.ImportPackage(ModulePath + "/gca")
	if err != nil || pkg2 != pkg {
		t.Error("import not cached")
	}
}

func TestImportStdlib(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := c.ImportPackage("crypto/sha256")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Scope().Lookup("New") == nil {
		t.Error("sha256.New missing")
	}
}

func TestCheckSourceAcceptsValid(t *testing.T) {
	c, _ := NewChecker("")
	_, pkg, info, err := c.CheckSource("ok.go", `package x

import "cognicryptgen/gca"

func f() error {
	r, err := gca.NewSecureRandom()
	if err != nil {
		return err
	}
	return r.NextBytes(make([]byte, 8))
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil || info == nil {
		t.Fatal("missing results")
	}
}

func TestCheckSourceRejectsTypeErrors(t *testing.T) {
	c, _ := NewChecker("")
	_, _, _, err := c.CheckSource("bad.go", `package x

func f() int { return "not an int" }
`)
	if err == nil || !strings.Contains(err.Error(), "type errors") {
		t.Fatalf("got %v", err)
	}
}

func TestCheckSourceRejectsSyntaxErrors(t *testing.T) {
	c, _ := NewChecker("")
	_, _, _, err := c.CheckSource("bad.go", "package x\nfunc {")
	if err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("got %v", err)
	}
}

// TestFilesLeaveFileSet: Verify keeps no file on any outcome, CheckSource
// keeps only a file it returns, and Release takes that one out. Errors
// keep their file:line:col after the release.
func TestFilesLeaveFileSet(t *testing.T) {
	c, _ := NewChecker("")
	count := func() int {
		n := 0
		c.Fset.Iterate(func(*token.File) bool { n++; return true })
		return n
	}
	const ok = "package x\n\nimport \"cognicryptgen/gca\"\n\nvar _ = gca.NewSecureRandom\n"
	if err := c.Verify("warm.go", ok); err != nil { // imports gca for good
		t.Fatal(err)
	}
	before := count()
	if err := c.Verify("ok.go", ok); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify("syntax.go", "package x\nfunc {"); err == nil || !strings.Contains(err.Error(), "syntax.go:2:6: ") {
		t.Errorf("syntax error: %v", err)
	}
	if err := c.Verify("types.go", "package x\n\nvar n int = \"s\"\n"); err == nil || !strings.Contains(err.Error(), "types.go:3:13: ") {
		t.Errorf("type error: %v", err)
	}
	if f, _, _, err := c.CheckSource("types.go", "package x\n\nvar n int = \"s\"\n"); err == nil || f != nil {
		t.Errorf("CheckSource on a type error: file %v, err %v", f, err)
	}
	if got := count(); got != before {
		t.Errorf("FileSet holds %d files after failed and verified checks, want %d", got, before)
	}
	f, _, _, err := c.CheckSource("kept.go", ok)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(); got != before+1 {
		t.Errorf("FileSet holds %d files with one checked file kept, want %d", got, before+1)
	}
	c.Release(f)
	c.Release(f, nil) // no-op
	if got := count(); got != before {
		t.Errorf("FileSet holds %d files after Release, want %d", got, before)
	}
}

func TestImportUnknownModulePackage(t *testing.T) {
	c, _ := NewChecker("")
	if _, err := c.ImportPackage(ModulePath + "/doesnotexist"); err == nil {
		t.Fatal("unknown module package imported")
	}
}
