package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// Differential coverage (satellite): every seed scenario must produce
// byte-identical JSONL across worker counts and identical results across
// the jumping and legacy stepping paths. Scenarios are deterministic
// by construction — seeds are derived from the spec, never from time or
// scheduling — so any divergence here is a real bug.

func shortSubset(t *testing.T) []Spec {
	t.Helper()
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		var kept []Spec
		for _, s := range specs {
			if s.Short {
				kept = append(kept, s)
			}
		}
		return kept
	}
	return specs
}

func TestWorkersDifferentialJSONL(t *testing.T) {
	specs := shortSubset(t)
	render := func(workers int) []byte {
		t.Helper()
		outcomes, err := RunSet(specs, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, outcomes); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := render(1)
	many := render(4)
	if !bytes.Equal(one, many) {
		t.Fatalf("JSONL differs between -workers 1 and -workers 4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			firstDiffLine(one, many), firstDiffLine(many, one))
	}
}

// TestBuiltinJSONLGolden pins the outcome bytes of every built-in
// scenario across commits, including the invariant details computed from
// the twin runs ("slowdown …", "energy saving …"). The whole set runs in
// well under a second, so -short runs it too.
func TestBuiltinJSONLGolden(t *testing.T) {
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := RunSet(specs, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, outcomes); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	golden := filepath.Join("testdata", "builtin.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSONL differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, firstDiffLine(got, want), firstDiffLine(want, got))
	}
}

func TestSteppingDifferentialResults(t *testing.T) {
	for _, s := range shortSubset(t) {
		t.Run(s.Name, func(t *testing.T) {
			wheel, err := Run(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := Run(s, Options{LegacyStepping: true})
			if err != nil {
				t.Fatal(err)
			}
			a, err := json.Marshal(wheel.Result)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(legacy.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("wheel vs legacy result differs:\nwheel:  %s\nlegacy: %s", a, b)
			}
			if wheel.Passed != legacy.Passed {
				t.Errorf("pass/fail differs: wheel=%v legacy=%v", wheel.Passed, legacy.Passed)
			}
		})
	}
}

// firstDiffLine returns the first line where a diverges from b, for
// readable failures.
func firstDiffLine(a, b []byte) []byte {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return al[i]
		}
	}
	return nil
}
