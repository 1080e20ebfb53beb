package sim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/retention"
	"repro/internal/workload"
)

// The validation satellite: negative durations and out-of-range
// temperatures must be rejected with sentinel errors, never silently
// clamped.

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig(SchemeMECC, 0)
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}

	neg := base
	neg.Instructions = -1
	if err := neg.Validate(); !errors.Is(err, ErrBadDuration) {
		t.Errorf("Instructions=-1: err = %v, want ErrBadDuration", err)
	}

	ckpt := base
	ckpt.CheckpointEvery = -5
	if err := ckpt.Validate(); !errors.Is(err, ErrBadDuration) {
		t.Errorf("CheckpointEvery=-5: err = %v, want ErrBadDuration", err)
	}

	// A negative decode latency is rejected, not simulated: at -5
	// cycles ECC-6 would out-run a scheme with no decode at all.
	weak := base
	weak.WeakDecodeCycles = -1
	if err := weak.Validate(); !errors.Is(err, ErrBadDuration) {
		t.Errorf("WeakDecodeCycles=-1: err = %v, want ErrBadDuration", err)
	}
	strong := base
	strong.StrongDecodeCycles = -5
	if err := strong.Validate(); !errors.Is(err, ErrBadDuration) {
		t.Errorf("StrongDecodeCycles=-5: err = %v, want ErrBadDuration", err)
	}
	free := base
	free.WeakDecodeCycles, free.StrongDecodeCycles = 0, 0
	if err := free.Validate(); err != nil {
		t.Errorf("zero decode latencies: err = %v, want nil", err)
	}

	for _, tc := range []float64{200, -80} {
		hot := base
		hot.TempC = tc
		if err := hot.Validate(); !errors.Is(err, ErrBadTemperature) {
			t.Errorf("TempC=%g: err = %v, want ErrBadTemperature", tc, err)
		}
	}

	// Zero means unset, not 0 degC: it validates and reads as nominal.
	unset := base
	unset.TempC = 0
	if err := unset.Validate(); err != nil {
		t.Errorf("TempC=0: err = %v, want nil", err)
	}
}

func TestNewRunnerRejectsInvalidConfig(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeMECC, 0)
	cfg.TempC = 500
	if _, err := NewRunner(prof.Scaled(4000), cfg); !errors.Is(err, ErrBadTemperature) {
		t.Fatalf("NewRunner(TempC=500) err = %v, want ErrBadTemperature", err)
	}
	cfg = DefaultConfig(SchemeMECC, 0)
	cfg.Instructions = -7
	if _, err := NewRunner(prof.Scaled(4000), cfg); !errors.Is(err, ErrBadDuration) {
		t.Fatalf("NewRunner(Instructions=-7) err = %v, want ErrBadDuration", err)
	}
}

func TestGoIdleRejectsNegativeDuration(t *testing.T) {
	r := newPhaseRunner(t, SchemeMECC)
	if err := r.RunActive(50_000); err != nil {
		t.Fatal(err)
	}
	if err := r.GoIdle(-time.Millisecond); !errors.Is(err, ErrBadDuration) {
		t.Fatalf("GoIdle(-1ms) err = %v, want ErrBadDuration", err)
	}
	// The rejected call must not have flipped phase state.
	if err := r.GoIdle(10 * time.Millisecond); err != nil {
		t.Fatalf("GoIdle after rejected call: %v", err)
	}
	if err := r.WakeUp(); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerTempC(t *testing.T) {
	r := newPhaseRunner(t, SchemeMECC)
	if got := r.TempC(); got != retention.NominalTempC {
		t.Fatalf("default TempC = %g, want %g", got, retention.NominalTempC)
	}
	if err := r.SetTempC(55); err != nil {
		t.Fatal(err)
	}
	if got := r.TempC(); got != 55 {
		t.Fatalf("TempC after set = %g, want 55", got)
	}
	// Rejected update leaves state unchanged.
	if err := r.SetTempC(400); !errors.Is(err, ErrBadTemperature) {
		t.Fatalf("SetTempC(400) err = %v, want ErrBadTemperature", err)
	}
	if got := r.TempC(); got != 55 {
		t.Fatalf("TempC after rejected set = %g, want 55", got)
	}

	// A config-set temperature seeds the runner.
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeMECC, 0)
	cfg.TempC = 70
	r2, err := NewRunner(prof.Scaled(4000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.TempC(); got != 70 {
		t.Fatalf("config TempC = %g, want 70", got)
	}
}

func TestRunnerSetBaseCPI(t *testing.T) {
	r := newPhaseRunner(t, SchemeMECC)
	if err := r.SetBaseCPI(0.1); err == nil {
		t.Fatal("SetBaseCPI(0.1) accepted, want error")
	}
	if err := r.SetBaseCPI(2.0); err != nil {
		t.Fatalf("SetBaseCPI(2.0): %v", err)
	}
	if err := r.RunActive(10_000); err != nil {
		t.Fatal(err)
	}
}
