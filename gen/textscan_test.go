package gen

import (
	"regexp"
	"testing"
	"unicode/utf8"

	"cognicryptgen/templates"
)

// buildTagRE is the pattern stripBuildTag replaces.
var buildTagRE = regexp.MustCompile(`(?m)^//go:build cryptgen_template\r?\n(\r?\n)?`)

// FuzzTextScans checks the byte scans against the regexps they replace:
// countWord against \b<name>\b counted up to 2, usesQualifier against
// \b<name>\. and stripBuildTag against buildTagRE.
func FuzzTextScans(f *testing.F) {
	for _, uc := range append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...) {
		src, err := templates.Source(uc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src, "gca")
		f.Add(src, "err")
	}
	for _, seed := range [][2]string{
		{"//go:build cryptgen_template\r\n\r\npackage p\r\n", "p"},               // CRLF line endings
		{"package p // //go:build cryptgen_template\n\nvar x = 1\n", "x"},        // tag not at a line start
		{"//go:build cryptgen_template\n\n\npackage p\n", "p"},                   // two blank lines after the tag
		{"package p\n\n//go:build cryptgen_template", "cryptgen_template"},       // tag at EOF, no newline
		{"//go:build cryptgen_template\n//go:build cryptgen_template\n\n", "go"}, // back-to-back tags
		{"key := gca.New(); _ = key2; key_x, xkey := key, gca2.F", "key"},
		{"é.F(αgca.X, gca.Y)", "é"},
		{"aaa aa a", "aa"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, text, name string) {
		if got, want := stripBuildTag(text), buildTagRE.ReplaceAllString(text, ""); got != want {
			t.Errorf("stripBuildTag(%q) = %q, want %q", text, got, want)
		}
		if name == "" || !utf8.ValidString(name) {
			return // regexp needs a valid pattern; the scans need a non-empty name
		}
		word := regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`)
		if got, want := countWord(text, name, 2), len(word.FindAllStringIndex(text, 2)); got != want {
			t.Errorf("countWord(%q, %q) = %d, want %d", text, name, got, want)
		}
		qual := regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\.`)
		if got, want := usesQualifier(text, name), qual.MatchString(text); got != want {
			t.Errorf("usesQualifier(%q, %q) = %v, want %v", text, name, got, want)
		}
	})
}
