package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeModule lays out a throwaway module named m from a map of
// slash-separated file paths to contents and returns its directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadBrokenRootIsolated pins that a root's type error stays on that
// root: it is reported once, as the go/types message, and neither a
// clean sibling nor a package importing the broken one gets a finding.
func TestLoadBrokenRootIsolated(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\n// X is fine.\nconst X = 1\n\n// Bad is the type error.\nvar Bad int = \"s\"\n",
		"b/b.go": "package b\n\n// Y is fine.\nconst Y = 2\n",
		"c/c.go": "package c\n\nimport \"m/a\"\n\n// Z uses the healthy part of a.\nconst Z = a.X + 1\n",
	})
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("got %d packages, want a, b and c", len(pkgs))
	}
	diags := analysis.Run(pkgs, analysis.All(), nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly one on a: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "load" || filepath.Base(d.Pos.Filename) != "a" {
		t.Fatalf("diagnostic = %s, want a load finding on a", d)
	}
	if want := `cannot use "s" (untyped string constant) as int value`; !strings.Contains(d.Message, want) {
		t.Fatalf("load finding %q does not carry the go/types message %q", d.Message, want)
	}
}

// TestLoadDependencyImportingRoot pins the one dependency the loader
// checks from source: codec is not a pattern package, but it imports
// the pattern package line, so user must see codec's signatures over
// the same line types it imports itself.
func TestLoadDependencyImportingRoot(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"line/line.go":   "package line\n\n// L is a line.\ntype L struct{ W uint64 }\n",
		"codec/codec.go": "package codec\n\nimport \"m/line\"\n\n// Enc encodes a line.\nfunc Enc(l line.L) uint64 { return l.W }\n",
		"user/user.go":   "package user\n\nimport (\n\t\"m/codec\"\n\t\"m/line\"\n)\n\n// Use encodes a fresh line.\nfunc Use() uint64 { return codec.Enc(line.L{W: 1}) }\n",
	})
	pkgs, err := analysis.Load(dir, "./line", "./user")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want line and user", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.Errors) > 0 {
			t.Errorf("%s: %v", p.PkgPath, p.Errors)
		}
	}
}
