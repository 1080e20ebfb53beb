package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// meccvet source directives, written as `//meccvet:<verb> ...` comments
// (no space after //, like //go: directives):
//
//	//meccvet:allow [name,...] [-- reason]   suppress findings on this
//	                                         line or the next one
//	//meccvet:hotpath                        (func doc) enforce the
//	                                         allocation-free contract
//	//meccvet:nilsafe                        (type doc) exported pointer
//	                                         methods must nil-guard the
//	                                         receiver
//	//meccvet:unitconv                       (func doc) function is a
//	                                         sanctioned unit-conversion
//	                                         helper
//	//meccvet:quiescent                      (func doc) function mutates
//	                                         shared state and must not
//	                                         run concurrently with
//	                                         traffic (checked by
//	                                         concsafety)
//	//meccvet:seed                           (func doc) function derives
//	                                         deterministic seeds; its
//	                                         results are sanctioned
//	                                         rand-source provenance
//	                                         (trusted by seedflow)
//	//meccvet:seqlock writer|reader          (func doc) function takes
//	                                         part in a sequence-lock
//	                                         protocol; the seqlock
//	                                         analyzer checks its
//	                                         open/store/release or
//	                                         load/recheck shape
const (
	verbAllow     = "allow"
	verbHotpath   = "hotpath"
	verbNilsafe   = "nilsafe"
	verbUnitconv  = "unitconv"
	verbQuiescent = "quiescent"
	verbSeed      = "seed"
	verbSeqlock   = "seqlock"
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

// directiveArg returns the first argument of the given directive verb
// in a doc comment group ("" when the directive is absent or bare).
func directiveArg(doc *ast.CommentGroup, verb string) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		if v, names, ok := parseDirective(c.Text); ok && v == verb {
			if len(names) > 0 {
				return names[0]
			}
			return ""
		}
	}
	return ""
}

// typeHasDirective reports whether the type declaration of the named
// type carries the marker, checking both the TypeSpec doc and the
// enclosing GenDecl doc (gofmt moves single-spec docs to the GenDecl).
func typeHasDirective(files []*ast.File, name, verb string) bool {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if hasDirective(ts.Doc, verb) || hasDirective(gd.Doc, verb) {
					return true
				}
			}
		}
	}
	return false
}
