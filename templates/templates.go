// Package templates embeds the CogniCryptGEN code templates for the
// eleven common cryptographic use cases of the paper's Table 1.
//
// Each template is a regular Go file carrying the cryptgen_template build
// tag; it contains only glue code plus fluent chains naming GoCrySL rules
// (see cognicryptgen/gen/fluent). The generator replaces every chain with
// rule-derived secure code.
package templates

import (
	"embed"
	"fmt"
	"io/fs"
	"maps"
	"sort"
	"strings"
	"sync"
)

//go:embed src/*.go
var templateFS embed.FS

// UseCase identifies one of the paper's Table 1 use cases.
type UseCase struct {
	// ID is the row number in Table 1 (1-11).
	ID int
	// Name is the Table 1 use-case name.
	Name string
	// File is the template file name under src/.
	File string
	// Sources lists the paper's provenance tags for the use case.
	Sources []string
}

// UseCases lists the eleven use cases in Table 1 order.
var UseCases = []UseCase{
	{1, "PBE on Files", "pbefiles.go", []string{"[21]"}},
	{2, "PBE on Strings", "pbestrings.go", []string{"[21]", "[27]"}},
	{3, "PBE on Byte-Arrays", "pbebytes.go", []string{"[21]"}},
	{4, "Symmetric-Key Encryption", "symenc.go", []string{"[27]", "[29]"}},
	{5, "Hybrid File Encryption", "hybridfile.go", []string{"[21]"}},
	{6, "Hybrid String Encryption", "hybridstring.go", []string{"[21]"}},
	{7, "Hybrid Byte-Array Encryption", "hybridbytes.go", []string{"[21]"}},
	{8, "Asymmetric String Encryption", "asymstring.go", []string{"[27]"}},
	{9, "Secure User-Password Storage", "passwordstorage.go", []string{"[21]", "[27]"}},
	{10, "Digital Signing of Strings", "signing.go", []string{"[21]", "[27]", "[29]"}},
	{11, "Hashing of Strings", "hashing.go", []string{"[27]"}},
}

// Extensions lists use cases beyond the paper's Table 1 — the §7
// "implement more use cases" future work exercised in this reproduction.
var Extensions = []UseCase{
	{12, "Message Authentication (HMAC)", "mac.go", []string{"§7 extension"}},
	{13, "Password-Sealed Key Storage", "keystore.go", []string{"§7 extension"}},
}

// ByID returns the use case with the given Table 1 row number, searching
// extensions as well.
func ByID(id int) (UseCase, error) {
	for _, uc := range UseCases {
		if uc.ID == id {
			return uc, nil
		}
	}
	for _, uc := range Extensions {
		if uc.ID == id {
			return uc, nil
		}
	}
	return UseCase{}, fmt.Errorf("templates: no use case %d", id)
}

// sources reads every embedded template once. The embedded files never
// change, so each use case's source string is built a single time and
// shared by every caller instead of being re-copied per request.
var sources = sync.OnceValues(func() (map[string]string, error) {
	entries, err := templateFS.ReadDir("src")
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := templateFS.ReadFile("src/" + e.Name())
		if err != nil {
			return nil, err
		}
		out[e.Name()] = string(data)
	}
	return out, nil
})

// Source returns the template source text for a use case.
func Source(uc UseCase) (string, error) {
	all, err := sources()
	if err != nil {
		return "", fmt.Errorf("templates: %w", err)
	}
	src, ok := all[uc.File]
	if !ok {
		return "", fmt.Errorf("templates: %w", &fs.PathError{Op: "open", Path: "src/" + uc.File, Err: fs.ErrNotExist})
	}
	return src, nil
}

// Sources returns all template sources keyed by file name.
func Sources() (map[string]string, error) {
	all, err := sources()
	if err != nil {
		return nil, err
	}
	return maps.Clone(all), nil
}

// Names returns the embedded template file names, sorted.
func Names() []string {
	entries, _ := templateFS.ReadDir("src")
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

// GlueLOC counts the non-comment, non-blank lines of a template — the
// artefact-size metric of the paper's Table 2 (RQ4).
func GlueLOC(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if inBlock {
			if strings.Contains(s, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case s == "", strings.HasPrefix(s, "//"):
			continue
		case strings.HasPrefix(s, "/*"):
			if !strings.Contains(s, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n
}
