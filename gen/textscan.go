package gen

import "strings"

// Byte scans over generated text, each equivalent to the regexp its
// comment names (FuzzTextScans checks them against those patterns)
// without compiling a pattern per name.

// isWordByte reports whether b is an ASCII word character, the class
// regexp's \b distinguishes (every byte of a non-ASCII rune is a
// non-word byte, as the rune itself is).
func isWordByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// wordBoundary reports whether \b holds at offset i of s.
func wordBoundary(s string, i int) bool {
	before := i > 0 && isWordByte(s[i-1])
	after := i < len(s) && isWordByte(s[i])
	return before != after
}

// countWord counts the non-overlapping matches of \b<word>\b in s, up to
// limit: len(regexp.FindAllStringIndex(s, limit)) for that pattern. word
// must be non-empty.
func countWord(s, word string, limit int) int {
	n := 0
	for from := 0; n < limit; {
		i := strings.Index(s[from:], word)
		if i < 0 {
			break
		}
		i += from
		if wordBoundary(s, i) && wordBoundary(s, i+len(word)) {
			n++
			from = i + len(word)
		} else {
			from = i + 1
		}
	}
	return n
}

// usesQualifier reports whether s matches \b<pkg>\. : pkg used as a
// package qualifier.
func usesQualifier(s, pkg string) bool {
	sel := pkg + "."
	for from := 0; ; {
		i := strings.Index(s[from:], sel)
		if i < 0 {
			return false
		}
		i += from
		if wordBoundary(s, i) {
			return true
		}
		from = i + 1
	}
}

// templateBuildTag is the build constraint that keeps templates out of
// ordinary builds.
const templateBuildTag = "//go:build cryptgen_template"

// stripBuildTag deletes every template build-tag line together with one
// blank line after it: regexp (?m)^//go:build cryptgen_template\r?\n(\r?\n)?
// replaced by "". A tag that does not start a line or end in a newline
// stays.
func stripBuildTag(s string) string {
	var b strings.Builder
	kept := 0 // s[:kept] is already in b or deleted
	for from := 0; ; {
		i := strings.Index(s[from:], templateBuildTag)
		if i < 0 {
			break
		}
		i += from
		from = i + 1
		if i > 0 && s[i-1] != '\n' {
			continue
		}
		end := lineBreak(s, i+len(templateBuildTag))
		if end < 0 {
			continue
		}
		if next := lineBreak(s, end); next >= 0 {
			end = next
		}
		b.WriteString(s[kept:i])
		kept, from = end, end
	}
	if kept == 0 {
		return s
	}
	b.WriteString(s[kept:])
	return b.String()
}

// lineBreak returns the offset just past an \r?\n at offset i of s, or -1.
func lineBreak(s string, i int) int {
	if i < len(s) && s[i] == '\r' {
		i++
	}
	if i < len(s) && s[i] == '\n' {
		return i + 1
	}
	return -1
}
