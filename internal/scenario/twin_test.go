package scenario

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestPrimaryErrorJoinsTwins: when the primary run fails, Run returns the
// primary's error and leaves no twin goroutine behind. With one P, a
// joined twin has exited before Run's caller runs again, while a twin
// that Run did not join is still pending, so the goroutine count tells
// the two apart without timing. The Gosched lets goroutines of earlier
// tests finish exiting before the count is taken.
func TestPrimaryErrorJoinsTwins(t *testing.T) {
	s := mustBuiltin(t, "fig1-idle-pattern")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.Gosched()
	before := runtime.NumGoroutine()
	_, err := Run(s, Options{Tamper: func(cfg *sim.Config) { cfg.TempC = 500 }})
	after := runtime.NumGoroutine()
	if !errors.Is(err, sim.ErrBadTemperature) {
		t.Fatalf("Run error = %v, want one wrapping sim.ErrBadTemperature", err)
	}
	if strings.Contains(err.Error(), "twin") {
		t.Errorf("primary error %q names a twin", err)
	}
	if after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}

// TestTwinErrorSurfacesAtItsInvariant: a failing stepping twin (Tamper's
// second call builds its config) is reported as the stepping twin's
// error, after a primary that ran cleanly.
func TestTwinErrorSurfacesAtItsInvariant(t *testing.T) {
	s := mustBuiltin(t, "wheel-vs-legacy")
	calls := 0
	tamper := func(cfg *sim.Config) {
		calls++
		if calls == 2 {
			cfg.TempC = 500
		}
	}
	_, err := Run(s, Options{Tamper: tamper})
	if !errors.Is(err, sim.ErrBadTemperature) {
		t.Fatalf("Run error = %v, want one wrapping sim.ErrBadTemperature", err)
	}
	if want := "scenario wheel-vs-legacy: stepping twin: "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Run error = %q, want prefix %q", err, want)
	}
	if calls != 2 {
		t.Errorf("Tamper called %d times, want 2 (primary, stepping twin)", calls)
	}
}

// TestSharedStreamsAnyGOMAXPROCS: the primary and both twins replay
// shared record chunks on their own goroutines, and which of them
// generates a chunk depends on scheduling. The JSONL must not.
func TestSharedStreamsAnyGOMAXPROCS(t *testing.T) {
	s := mustBuiltin(t, "fig1-idle-pattern")
	s.Invariants = append(s.Invariants, Invariant{Kind: InvSteppingEquivalence})
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, err := Run(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Passed {
			t.Errorf("GOMAXPROCS %d: %s failed: %+v", procs, s.Name, out.Invariants)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []*Outcome{out}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if one, two := render(1), render(2); !bytes.Equal(one, two) {
		t.Fatalf("JSONL differs between GOMAXPROCS 1 and 2:\n--- 1 ---\n%s\n--- 2 ---\n%s",
			firstDiffLine(one, two), firstDiffLine(two, one))
	}
}
