// Package analysistest runs one analyzer over a golden fixture package
// and checks its diagnostics against `// want` comments, in the style
// of golang.org/x/tools/go/analysis/analysistest: every line expecting
// a finding carries a trailing comment of the form
//
//	// want `regexp` `regexp`...
//
// with one back-quoted regular expression per expected diagnostic on
// that line. Unmatched diagnostics and unmatched expectations both fail
// the test, so fixtures double as both positive and negative cases —
// a `//meccvet:allow`-suppressed line simply carries no want comment.
package analysistest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRE extracts the back-quoted patterns of a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// Run loads the fixture package at pkgdir (a go list pattern relative
// to the calling test's working directory, e.g. ./testdata/src/foo),
// applies the analyzer, and matches diagnostics against the fixture's
// want comments. It returns the diagnostics for extra assertions.
func Run(t *testing.T, a *analysis.Analyzer, pkgdir string) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := analysis.Load(".", pkgdir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgdir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: want exactly one package, got %d", pkgdir, len(pkgs))
	}
	root := pkgs[0]
	if len(root.Errors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", pkgdir, root.Errors[0])
	}
	diags := analysis.Run(pkgs, []*analysis.Analyzer{a}, nil)
	checkWants(t, root, diags)
	return diags
}

// lineKey identifies one source line.
type lineKey struct {
	file string
	line int
}

// want is one expected-diagnostic pattern and whether a diagnostic
// matched it.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// checkWants cross-matches diagnostics against want comments.
func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := lineKey{d.Pos.Filename, d.Pos.Line}
		ws := wants[key]
		matched := false
		for _, w := range ws {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

// collectWants parses every want comment of the fixture.
func collectWants(t *testing.T, pkg *analysis.Package) map[lineKey][]*want {
	t.Helper()
	out := make(map[lineKey][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				// Both comment forms carry wants; the block form lets a
				// want share a line with a //-directive under test.
				if strings.HasPrefix(text, "//") {
					text = strings.TrimPrefix(text, "//")
				} else {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					key := lineKey{pos.Filename, pos.Line}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}

// MustFindings asserts the diagnostic count, for tests that assert
// totals on top of the positional matching.
func MustFindings(t *testing.T, diags []analysis.Diagnostic, n int) {
	t.Helper()
	if len(diags) != n {
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&sb, "\n  %s", d)
		}
		t.Errorf("got %d diagnostics, want %d:%s", len(diags), n, sb.String())
	}
}
