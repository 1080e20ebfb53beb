package scenario

import (
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
