package analysis_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func sampleDiags() []analysis.Diagnostic {
	return []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "/repo/internal/bch/bch.go", Line: 10, Column: 2},
			Analyzer: "errwrap",
			Message:  "comparing errors with == misses wrapped chains; use errors.Is",
		},
		{
			Pos:      token.Position{Filename: "/repo/cmd/tool/main.go", Line: 3, Column: 5},
			Analyzer: "determinism",
			Message:  "rand source seed derives from the wall clock (time.Now)",
		},
	}
}

// TestFindingsRelativize pins the path handling: files under baseDir
// become slash-relative, files outside keep their absolute form.
func TestFindingsRelativize(t *testing.T) {
	fs := analysis.Findings(sampleDiags(), "/repo")
	if fs[0].File != "internal/bch/bch.go" || fs[1].File != "cmd/tool/main.go" {
		t.Fatalf("relativized files = %q, %q", fs[0].File, fs[1].File)
	}
	out := analysis.Findings(sampleDiags(), "/elsewhere")
	if out[0].File != "/repo/internal/bch/bch.go" {
		t.Fatalf("outside baseDir: file = %q, want absolute", out[0].File)
	}
}

// TestFindingMessagesRelative sweeps every fixture under all analyzers
// and checks that no message embeds the module's absolute directory:
// a second location a message names (shared write, tainted argument)
// is relativized like the file field, so a baseline entry written in
// one checkout matches in any other.
func TestFindingMessagesRelative(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(".", "./testdata/src/...")
	if err != nil {
		t.Fatal(err)
	}
	findings := analysis.Findings(analysis.Run(pkgs, analysis.All(), nil), root)
	naming := make(map[string]bool)
	for _, f := range findings {
		if strings.Contains(f.Message, root) {
			t.Errorf("message embeds the absolute module path: %s", f)
		}
		if strings.Contains(f.Message, "internal/analysis/testdata/src/") {
			naming[f.Analyzer] = true
		}
	}
	for _, a := range []string{"concsafety", "determinism"} {
		if !naming[a] {
			t.Errorf("no %s message names a module-relative location; the check is vacuous", a)
		}
	}
}

// TestWriteJSONGolden pins the exact -format json wire shape.
func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, analysis.Findings(sampleDiags(), "/repo")); err != nil {
		t.Fatal(err)
	}
	want := `{
  "version": 1,
  "findings": [
    {
      "file": "internal/bch/bch.go",
      "line": 10,
      "column": 2,
      "analyzer": "errwrap",
      "message": "comparing errors with == misses wrapped chains; use errors.Is"
    },
    {
      "file": "cmd/tool/main.go",
      "line": 3,
      "column": 5,
      "analyzer": "determinism",
      "message": "rand source seed derives from the wall clock (time.Now)"
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("JSON output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteJSONEmpty pins the no-findings shape: an empty array, not
// null, so downstream jq never trips on the clean case.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Version  int                `json:"version"`
		Findings []analysis.Finding `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || rep.Findings == nil || len(rep.Findings) != 0 {
		t.Fatalf("empty report = %+v, want version 1 with empty findings array", rep)
	}
	if bytes.Contains(buf.Bytes(), []byte("null")) {
		t.Fatalf("empty report serializes null: %s", buf.String())
	}
}

// TestWriteSARIFShape checks the SARIF 2.1.0 schema shape code-scanning
// upload requires: version, one run, driver name, one rule per
// analyzer, and per-result ruleId/message/location.
func TestWriteSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteSARIF(&buf, analysis.Findings(sampleDiags(), "/repo"), analysis.All()); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v := log["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, ok := log["$schema"].(string); !ok || s == "" {
		t.Errorf("$schema missing")
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one", log["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "meccvet" {
		t.Errorf("driver name = %v, want meccvet", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != len(analysis.All()) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(rules), len(analysis.All()))
	}
	ruleIDs := make(map[string]bool)
	for _, r := range rules {
		ruleIDs[r.(map[string]any)["id"].(string)] = true
	}
	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	first := results[0].(map[string]any)
	if !ruleIDs[first["ruleId"].(string)] {
		t.Errorf("result ruleId %v not among declared rules", first["ruleId"])
	}
	loc := first["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	if uri := loc["artifactLocation"].(map[string]any)["uri"]; uri != "internal/bch/bch.go" {
		t.Errorf("artifact uri = %v", uri)
	}
	if line := loc["region"].(map[string]any)["startLine"]; line != float64(10) {
		t.Errorf("startLine = %v, want 10", line)
	}
}

// TestWriteSARIFDeclaresEveryRule pins that every result's ruleId is a
// declared rule, including the "directive" and "load" findings Run
// reports outside the selected analyzers, each declared once.
func TestWriteSARIFDeclaresEveryRule(t *testing.T) {
	diags := append(sampleDiags(),
		analysis.Diagnostic{
			Pos:      token.Position{Filename: "/repo/internal/x/x.go", Line: 4, Column: 1},
			Analyzer: "directive",
			Message:  `unknown meccvet directive "//meccvet:nilsaf"`,
		},
		analysis.Diagnostic{
			Pos:      token.Position{Filename: "/repo/internal/y/y.go", Line: 7, Column: 1},
			Analyzer: "directive",
			Message:  `allow names unknown analyzer "nosuch"`,
		},
		analysis.Diagnostic{
			Pos:      token.Position{Filename: "/repo/internal/broken"},
			Analyzer: "load",
			Message:  "undefined: foo",
		},
	)
	var buf bytes.Buffer
	if err := analysis.WriteSARIF(&buf, analysis.Findings(diags, "/repo"), analysis.All()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	run := log.Runs[0]
	declared := make(map[string]string)
	for _, r := range run.Tool.Driver.Rules {
		if _, dup := declared[r.ID]; dup {
			t.Errorf("rule %q declared twice", r.ID)
		}
		declared[r.ID] = r.ShortDescription.Text
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(diags))
	}
	for _, res := range run.Results {
		if _, ok := declared[res.RuleID]; !ok {
			t.Errorf("result ruleId %q not among declared rules %v", res.RuleID, declared)
		}
	}
	for _, id := range []string{"directive", "load"} {
		if d := declared[id]; d == "" || d == id {
			t.Errorf("rule %q description = %q, want a fixed description", id, d)
		}
	}
}

// TestBaselineRoundtrip pins the baseline workflow: accept the current
// findings, survive a write/load cycle, match on (file, analyzer,
// message) while ignoring line drift, and still catch genuinely new
// findings — including a second instance of a known one.
func TestBaselineRoundtrip(t *testing.T) {
	findings := analysis.Findings(sampleDiags(), "/repo")
	b := analysis.NewBaseline(findings)

	path := filepath.Join(t.TempDir(), "lint.baseline.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	if got := loaded.Filter(findings); len(got) != 0 {
		t.Fatalf("baseline does not absorb its own findings: %v", got)
	}

	// Line drift must not break the match.
	drifted := make([]analysis.Finding, len(findings))
	copy(drifted, findings)
	drifted[0].Line += 40
	if got := loaded.Filter(drifted); len(got) != 0 {
		t.Fatalf("line drift broke the baseline match: %v", got)
	}

	// A new finding and a duplicate of a known one must both surface.
	extra := append(drifted, analysis.Finding{
		File: "internal/sim/sim.go", Line: 9, Analyzer: "determinism", Message: "time.Now in scope",
	}, drifted[0])
	got := loaded.Filter(extra)
	if len(got) != 2 {
		t.Fatalf("Filter kept %d findings, want 2 (the new one and the duplicate): %v", len(got), got)
	}

	// A missing baseline file is an error, not an empty baseline: a
	// mistyped -baseline path must not silently pass CI.
	if _, err := analysis.LoadBaseline(filepath.Join(t.TempDir(), "absent.json")); !errors.Is(err, analysis.ErrBadBaseline) {
		t.Fatalf("LoadBaseline on a missing file: err = %v, want ErrBadBaseline", err)
	}
	// So is a path that cannot be read as a file.
	if _, err := analysis.LoadBaseline(t.TempDir()); !errors.Is(err, analysis.ErrBadBaseline) {
		t.Fatalf("LoadBaseline on a directory: err = %v, want ErrBadBaseline", err)
	}
}

// FuzzLoadBaseline treats the baseline file as an input surface: every
// input is rejected with ErrBadBaseline, or it loads, filters without
// panicking, and survives a Write/LoadBaseline round trip unchanged.
func FuzzLoadBaseline(f *testing.F) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "lint.baseline.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	var sample bytes.Buffer
	if err := analysis.NewBaseline(analysis.Findings(sampleDiags(), "/repo")).Write(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(`{"version": 1, "entries": [{"file": "a.go", "analyzer": "x", "message": "m", "count": -1}]}`))
	f.Add([]byte(`{"entries": [`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "lint.baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := analysis.LoadBaseline(path)
		if err != nil {
			if !errors.Is(err, analysis.ErrBadBaseline) {
				t.Fatalf("LoadBaseline error %v does not wrap ErrBadBaseline", err)
			}
			return
		}
		findings := analysis.Findings(sampleDiags(), "/repo")
		for _, e := range b.Entries {
			findings = append(findings, analysis.Finding{File: e.File, Analyzer: e.Analyzer, Message: e.Message})
		}
		b.Filter(findings)

		var first bytes.Buffer
		if err := b.Write(&first); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, first.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := analysis.LoadBaseline(path)
		if err != nil {
			t.Fatalf("a written baseline does not load: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("round trip changed the baseline:\nbefore %+v\nafter  %+v", b, again)
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write is not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
