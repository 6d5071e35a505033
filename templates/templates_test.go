package templates

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
	"unsafe"
)

func TestUseCaseTableMatchesPaper(t *testing.T) {
	if len(UseCases) != 11 {
		t.Fatalf("Table 1 has 11 use cases, got %d", len(UseCases))
	}
	for i, uc := range UseCases {
		if uc.ID != i+1 {
			t.Errorf("use case IDs must be 1..11 in order, got %d at index %d", uc.ID, i)
		}
	}
}

func TestByID(t *testing.T) {
	uc, err := ByID(5)
	if err != nil || uc.Name != "Hybrid File Encryption" {
		t.Fatalf("got %+v, %v", uc, err)
	}
	if _, err := ByID(99); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllTemplatesExistAndParse(t *testing.T) {
	for _, uc := range UseCases {
		src, err := Source(uc)
		if err != nil {
			t.Errorf("use case %d: %v", uc.ID, err)
			continue
		}
		if !strings.HasPrefix(src, "//go:build cryptgen_template") {
			t.Errorf("use case %d: missing template build tag", uc.ID)
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, uc.File, src, parser.SkipObjectResolution); err != nil {
			t.Errorf("use case %d does not parse: %v", uc.ID, err)
		}
		if !strings.Contains(src, "cryslgen.NewGenerator()") {
			t.Errorf("use case %d: no fluent chain", uc.ID)
		}
	}
}

func TestSourcesReturnsEverything(t *testing.T) {
	srcs, err := Sources()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(UseCases) + len(Extensions); len(srcs) != want {
		t.Errorf("embedded %d templates for %d use cases", len(srcs), want)
	}
	names := Names()
	if len(names) != len(srcs) {
		t.Errorf("Names() inconsistent: %v", names)
	}
}

// TestSourceIsMemoized: a use case's source is built once and shared by
// every call, and a use case without an embedded file is a not-exist error.
func TestSourceIsMemoized(t *testing.T) {
	a, errA := Source(UseCases[2])
	b, errB := Source(UseCases[2])
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("Source copied the template on the second call")
	}
	if _, err := Source(UseCase{ID: 99, File: "missing.go"}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Source(missing.go) error = %v, want fs.ErrNotExist", err)
	}
}

func TestGlueLOC(t *testing.T) {
	src := `// comment
package x

/* block
comment */
func f() {
	x := 1 // trailing comments still count the line
	_ = x
}
`
	if got := GlueLOC(src); got != 5 {
		t.Errorf("GlueLOC = %d, want 5", got)
	}
	if GlueLOC("") != 0 {
		t.Error("empty source should have 0 LOC")
	}
}

func TestTemplatesAreCompact(t *testing.T) {
	// The Table 2 claim rests on templates staying small: every template
	// must be well under 100 glue lines.
	for _, uc := range append(append([]UseCase(nil), UseCases...), Extensions...) {
		src, err := Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		if loc := GlueLOC(src); loc > 100 {
			t.Errorf("use case %d: template has %d LOC; the Table 2 story needs compact templates", uc.ID, loc)
		}
	}
}
