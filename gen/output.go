package gen

import (
	"fmt"
	"go/format"
	"sort"
	"strconv"
	"strings"
)

// generatedUsesGCA reports whether any generated snippet references the
// crypto façade package by name.
func generatedUsesGCA(texts []string, pkgName string) bool {
	for _, t := range texts {
		if usesQualifier(t, pkgName) {
			return true
		}
	}
	return false
}

// spliceOutput assembles the generated file: fluent chains are replaced by
// generated statements via byte-offset splicing (so glue code, comments and
// formatting of the template survive verbatim), the fluent import and the
// template build tag are removed, the package may be renamed, and the
// synthesized TemplateUsage function is appended. The result is
// gofmt-formatted.
func (g *Generator) spliceOutput(tmpl *Template, repl map[int][2]int, texts []string, usage string) (string, error) {
	type edit struct {
		start, end int
		text       string
	}
	var edits []edit
	for start, v := range repl {
		edits = append(edits, edit{start: start, end: v[0], text: texts[v[1]]})
	}

	// Remove the fluent import spec (the generated code no longer uses it)
	// and add the crypto-façade import when the template did not need it
	// itself but the generated code does.
	gcaPath := g.api.pkg.Path()
	hasGCA := false
	for _, imp := range tmpl.File.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == gcaPath {
			hasGCA = true
		}
	}
	for _, imp := range tmpl.File.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != fluentImportPath {
			continue
		}
		start := g.checker.Fset.Position(imp.Pos()).Offset
		end := g.checker.Fset.Position(imp.End()).Offset
		// Swallow the rest of the line including the newline.
		for end < len(tmpl.Src) && tmpl.Src[end] != '\n' {
			end++
		}
		if end < len(tmpl.Src) {
			end++
		}
		replacement := ""
		if !hasGCA && generatedUsesGCA(texts, g.api.pkg.Name()) {
			replacement = strconv.Quote(gcaPath) + "\n"
			hasGCA = true
		}
		edits = append(edits, edit{start: start, end: end, text: replacement})
	}

	// Rename the package clause if requested.
	if g.opts.PackageName != "" && g.opts.PackageName != tmpl.File.Name.Name {
		start := g.checker.Fset.Position(tmpl.File.Name.Pos()).Offset
		end := g.checker.Fset.Position(tmpl.File.Name.End()).Offset
		edits = append(edits, edit{start: start, end: end, text: g.opts.PackageName})
	}

	sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
	out := tmpl.Src
	for _, e := range edits {
		if e.start < 0 || e.end > len(out) || e.start > e.end {
			return "", fmt.Errorf("gen: splice out of range [%d,%d)", e.start, e.end)
		}
		out = out[:e.start] + e.text + out[e.end:]
	}

	out = stripBuildTag(out)
	header := planHeaderPrefix + tmpl.Name + ". DO NOT EDIT.\n//\n" +
		"// The implementation below was derived from GoCrySL rules; edit the\n" +
		"// template and the rules, then regenerate, instead of patching this file.\n\n"
	out = header + out
	if usage != "" {
		out = strings.TrimRight(out, "\n") + "\n\n" + usage
	}

	formatted, err := format.Source([]byte(out))
	if err != nil {
		return out, fmt.Errorf("gen: generated file does not parse (generator bug): %w\n--- output ---\n%s", err, out)
	}
	return string(formatted), nil
}
