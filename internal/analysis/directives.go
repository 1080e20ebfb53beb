package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// meccvet source directives, written as `//meccvet:<verb> ...` comments
// (no space after //, like //go: directives):
//
//	//meccvet:allow [name,...] [-- reason]   suppress findings on this
//	                                         line or the next one
//	//meccvet:quiescent                      (func doc) function mutates
//	                                         shared state and must not
//	                                         run concurrently with
//	                                         traffic (checked by
//	                                         concsafety)
//	//meccvet:seed                           (func doc) function derives
//	                                         deterministic seeds; its
//	                                         results are sanctioned
//	                                         rand-source provenance
//	                                         (trusted by determinism)
//
// Any other verb, and an allow naming an analyzer All does not hold,
// is reported by checkDirectives.
const (
	verbAllow     = "allow"
	verbQuiescent = "quiescent"
	verbSeed      = "seed"
)

const directivePrefix = "//meccvet:"

// directive is one parsed //meccvet: comment.
type directive struct {
	pos   token.Position
	verb  string
	names []string // allow: analyzer names (empty means all)
}

// parseDirective splits one comment into a directive, or returns
// ok=false for ordinary comments.
func parseDirective(text string) (verb string, names []string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", nil, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	// Everything after " -- " is a free-form justification.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", nil, false
	}
	verb = fields[0]
	for _, f := range fields[1:] {
		for _, n := range strings.Split(f, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	return verb, names, true
}

// scanDirectives collects every //meccvet: comment in the files.
func scanDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, names, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				out = append(out, directive{
					pos:   fset.Position(c.Slash),
					verb:  verb,
					names: names,
				})
			}
		}
	}
	return out
}

// checkDirectives reports each directive that would otherwise be
// silently ignored: an unknown verb (a misspelt //meccvet:quiescent
// turns concsafety's check off for its function), and an allow naming
// an analyzer outside All. Names are checked against All, not against
// the run's selection, so a -run subset never flags a valid allow.
func checkDirectives(dirs []directive) []Diagnostic {
	known := map[string]bool{verbAllow: true, verbQuiescent: true, verbSeed: true}
	registered := make(map[string]bool)
	for _, a := range All() {
		registered[a.Name] = true
	}
	var out []Diagnostic
	report := func(d directive, format string, args ...any) {
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
	}
	for _, d := range dirs {
		switch {
		case !known[d.verb]:
			report(d, "unknown directive %s%s is ignored", directivePrefix, d.verb)
		case d.verb == verbAllow:
			for _, n := range d.names {
				if !registered[n] {
					report(d, "%sallow names unknown analyzer %q", directivePrefix, n)
				}
			}
		}
	}
	return out
}

// hasDirective reports whether a doc comment group carries the given
// //meccvet:<verb> marker.
func hasDirective(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if v, _, ok := parseDirective(c.Text); ok && v == verb {
			return true
		}
	}
	return false
}
