package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// ErrLoad reports a failure to enumerate, parse, or type-check the
// requested packages.
var ErrLoad = errors.New("analysis: load failed")

// A Package is one loaded root package: parsed with comments and
// type-checked from source with full fact tables.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Name is the package name.
	Name string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Types is the type-checked package (nil when parsing failed).
	Types *types.Package
	// Info holds the package's type-checking facts.
	Info *types.Info
	// Errors collects parse and type errors; analyzers only run on
	// error-free packages.
	Errors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Export     string
	Error      *struct{ Err string }
}

// Load returns the packages matching the patterns (relative to dir),
// each parsed and type-checked from source. Their dependencies are
// imported from the compiler export data that `go list -export` points
// to in the Go build cache — the same files `go build` and `go vet`
// write — so no dependency is parsed. The one exception is a
// dependency that itself imports a pattern package: it is checked from
// source too (declarations only), because it must see the same
// source-checked types as the roots, which export data cannot supply.
//
// The metadata and the export locations come from two separate `go
// list` runs: asking the first for export data would turn a root's
// type error into a build failure and mark every package importing it
// as unimportable, while the roots themselves never need export data.
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, err := goList(dir, []string{"-json"}, patterns)
	if err != nil {
		return nil, err
	}
	exports, err := goList(dir, []string{"-export", "-json=ImportPath,Export,DepOnly"}, patterns)
	if err != nil {
		return nil, err
	}
	exportFile := make(map[string]string, len(exports))
	for _, e := range exports {
		if e.DepOnly {
			exportFile[e.ImportPath] = e.Export
		}
	}

	fset := token.NewFileSet()
	imp := &srcImporter{
		built: make(map[string]*types.Package),
		export: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f := exportFile[path]; f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("%w: no export data for %s", ErrLoad, path)
		}),
	}
	// `go list -deps` lists every package after its dependencies, so one
	// pass both finds the source set and checks it in dependency order.
	source := make(map[string]bool)
	var roots []*Package
	for _, m := range metas {
		fromSource := !m.DepOnly
		for _, dep := range m.Imports {
			fromSource = fromSource || source[m.resolve(dep)]
		}
		if !fromSource {
			continue
		}
		source[m.ImportPath] = true
		pkg := typeCheck(fset, m, imp)
		if pkg.Types != nil {
			imp.built[m.ImportPath] = pkg.Types
		}
		if !m.DepOnly {
			roots = append(roots, pkg)
		}
	}
	return roots, nil
}

// goList shells out to `go list -e -deps <flags> <patterns>` and
// decodes the stream.
func goList(dir string, flags, patterns []string) ([]*listPkg, error) {
	args := append(append([]string{"list", "-e", "-deps"}, flags...), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: go list %v: %w\n%s", ErrLoad, patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var metas []*listPkg
	for {
		m := new(listPkg)
		if err := dec.Decode(m); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: decoding go list output: %w", ErrLoad, err)
		}
		metas = append(metas, m)
	}
	if len(metas) == 0 {
		return nil, fmt.Errorf("%w: no packages match %v", ErrLoad, patterns)
	}
	return metas, nil
}

// resolve maps an import path through the package's ImportMap (vendor
// and PGO variants) to the path go list reported the package under.
func (m *listPkg) resolve(path string) string {
	if mapped, ok := m.ImportMap[path]; ok {
		return mapped
	}
	return path
}

// srcImporter resolves the imports of the package being checked (cur):
// packages already checked from source come from built, the rest from
// export data. Type checking is strictly serial, so cur is plain state.
type srcImporter struct {
	cur    *listPkg
	built  map[string]*types.Package
	export types.Importer
}

// Import resolves one import path of the current package.
func (si *srcImporter) Import(path string) (*types.Package, error) {
	path = si.cur.resolve(path)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := si.built[path]; ok {
		return pkg, nil
	}
	return si.export.Import(path)
}

// typeCheck parses and checks one package from source. A root keeps
// its comments, function bodies, and fact tables; a source-checked
// dependency needs only its package-level declarations, and its errors
// surface on the roots that import it.
func typeCheck(fset *token.FileSet, m *listPkg, imp *srcImporter) *Package {
	root := !m.DepOnly
	pkg := &Package{
		PkgPath: m.ImportPath,
		Name:    m.Name,
		Dir:     m.Dir,
		Fset:    fset,
	}
	if m.Error != nil {
		pkg.Errors = append(pkg.Errors, fmt.Errorf("%w: %s: %s", ErrLoad, m.ImportPath, m.Error.Err))
		return pkg
	}
	mode := parser.SkipObjectResolution
	if root {
		mode |= parser.ParseComments
	}
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, mode)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Errors) > 0 || len(pkg.Files) == 0 {
		return pkg
	}
	if root {
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
	}
	conf := types.Config{
		Importer:         imp,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: !root,
		Error: func(err error) {
			if root {
				pkg.Errors = append(pkg.Errors, err)
			}
		},
	}
	imp.cur = m
	pkg.Types, _ = conf.Check(m.ImportPath, fset, pkg.Files, pkg.Info)
	return pkg
}
