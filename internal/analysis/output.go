package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Finding is the machine-readable form of a Diagnostic: the same
// fact, with the filename relativized so JSON and SARIF output (and the
// baseline built from them) are stable across checkouts.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Column, f.Message, f.Analyzer)
}

// Findings converts diagnostics, relativizing filenames against baseDir
// (paths outside baseDir keep their absolute form). Source locations
// that a message names (an atomic site, a shared write, an allocation,
// a tainted argument) are relativized against the same base, so a
// baseline entry written in one checkout matches in any other.
func Findings(diags []Diagnostic, baseDir string) []Finding {
	out := make([]Finding, 0, len(diags))
	var prefix string
	if baseDir != "" {
		prefix = filepath.Clean(baseDir) + string(filepath.Separator)
	}
	for _, d := range diags {
		file, msg := d.Pos.Filename, d.Message
		if prefix != "" {
			if rel, err := filepath.Rel(baseDir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			msg = strings.ReplaceAll(msg, prefix, "")
		}
		out = append(out, Finding{
			File:     file,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  msg,
		})
	}
	return out
}

// jsonReport is the envelope of -format json output.
type jsonReport struct {
	Version  int       `json:"version"`
	Findings []Finding `json:"findings"`
}

// WriteJSON emits the findings as the versioned meccvet JSON report.
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Version: 1, Findings: findings})
}

// SARIF 2.1.0 skeleton — only the fields CI code-scanning upload needs.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF emits the findings as a SARIF 2.1.0 log with one run, one
// rule per analyzer, and one result per finding — the shape GitHub
// code-scanning upload consumes.
func WriteSARIF(w io.Writer, findings []Finding, analyzers []*Analyzer) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		line := f.Line
		if line < 1 {
			line = 1 // loader diagnostics carry no position
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.File)},
				Region:           sarifRegion{StartLine: line, StartColumn: f.Column},
			}}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "meccvet", Rules: rules}},
			Results: results,
		}},
	})
}

// A Baseline is the committed set of accepted findings. Entries match
// on (file, analyzer, message) and deliberately ignore line numbers, so
// unrelated edits that shift a known finding up or down the file do not
// break CI; each entry carries a count so a *second* instance of an
// identical finding is still new.
type Baseline struct {
	Version int             `json:"version"`
	Entries []BaselineEntry `json:"entries"`
}

// A BaselineEntry identifies one accepted finding (or several identical
// ones).
type BaselineEntry struct {
	File     string `json:"file"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

// baselineKey is the identity a finding matches a baseline entry on.
type baselineKey struct {
	file, analyzer, message string
}

// NewBaseline builds a baseline accepting exactly the given findings.
func NewBaseline(findings []Finding) *Baseline {
	counts := make(map[baselineKey]int)
	for _, f := range findings {
		counts[baselineKey{f.File, f.Analyzer, f.Message}]++
	}
	b := &Baseline{Version: 1}
	for k, n := range counts {
		b.Entries = append(b.Entries, BaselineEntry{File: k.file, Analyzer: k.analyzer, Message: k.message, Count: n})
	}
	sort.Slice(b.Entries, func(i, j int) bool {
		a, c := b.Entries[i], b.Entries[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Analyzer != c.Analyzer {
			return a.Analyzer < c.Analyzer
		}
		return a.Message < c.Message
	})
	return b
}

// ErrBadBaseline reports a baseline file that is missing, unreadable,
// or not baseline JSON.
var ErrBadBaseline = errors.New("analysis: bad baseline")

// LoadBaseline reads a baseline file; every failure wraps
// ErrBadBaseline. A missing file is an error: a CI job that names a
// baseline which is not there would otherwise silently run
// unbaselined, and a typo in the path would look like a pass.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s does not exist (run -write-baseline to create one)", ErrBadBaseline, path)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %w", ErrBadBaseline, path, err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%w: parsing %s: %w", ErrBadBaseline, path, err)
	}
	return &b, nil
}

// Write emits the baseline as stable, diff-friendly JSON.
func (b *Baseline) Write(w io.Writer) error {
	if b.Entries == nil {
		b.Entries = []BaselineEntry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Filter returns the findings not covered by the baseline — the ones CI
// fails on. Each baseline entry absorbs up to Count matching findings.
func (b *Baseline) Filter(findings []Finding) []Finding {
	budget := make(map[baselineKey]int, len(b.Entries))
	for _, e := range b.Entries {
		budget[baselineKey{e.File, e.Analyzer, e.Message}] += e.Count
	}
	var out []Finding
	for _, f := range findings {
		k := baselineKey{f.File, f.Analyzer, f.Message}
		if budget[k] > 0 {
			budget[k]--
			continue
		}
		out = append(out, f)
	}
	return out
}
