package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/workload"
)

// FuzzConfigValidate holds Config.Validate to its contract on
// fuzz-chosen schemes, budgets, checkpoint intervals, decode latencies
// and temperatures: nothing panics, every rejection wraps ErrBadDuration
// or ErrBadTemperature, and NewRunner accepts exactly the configs
// Validate accepts.
func FuzzConfigValidate(f *testing.F) {
	def := DefaultConfig(SchemeMECC, 10_000_000)
	weak, strong := def.WeakDecodeCycles, def.StrongDecodeCycles
	f.Add(uint8(SchemeMECC), def.Instructions, def.CheckpointEvery, weak, strong, def.TempC)
	f.Add(uint8(SchemeBaseline), int64(4_000_000_000), int64(0), 0, 0, 0.0) // scale 1
	f.Add(uint8(SchemeECC6), int64(math.MaxInt), int64(math.MaxInt), math.MaxInt, math.MaxInt, 85.0)
	f.Add(uint8(SchemeSECDED), int64(-1), int64(-1), weak, strong, 45.0)
	f.Add(uint8(SchemeECC6), int64(1), int64(0), weak, -5, 45.0)
	f.Add(uint8(SchemeMECC), int64(1), int64(0), -1, strong, 45.0)
	f.Add(uint8(SchemeMECC), int64(1), int64(1), weak, strong, math.NaN())
	f.Add(uint8(SchemeMECC), int64(1), int64(0), weak, strong, math.Inf(1))
	f.Add(uint8(SchemeMECC), int64(1), int64(0), weak, strong, math.Inf(-1))
	prof, err := workload.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, scheme uint8, instructions, checkpointEvery int64, weakCycles, strongCycles int, tempC float64) {
		cfg := DefaultConfig(SchemeBaseline+SchemeKind(scheme%4), instructions)
		cfg.CheckpointEvery = checkpointEvery
		cfg.WeakDecodeCycles, cfg.StrongDecodeCycles = weakCycles, strongCycles
		cfg.TempC = tempC
		verr := cfg.Validate()
		if verr != nil && !errors.Is(verr, ErrBadDuration) && !errors.Is(verr, ErrBadTemperature) {
			t.Fatalf("Validate(%+v) = %v, want an ErrBadDuration or ErrBadTemperature wrap", cfg, verr)
		}
		if _, err := NewRunner(prof, cfg); (err == nil) != (verr == nil) {
			t.Fatalf("NewRunner error %v, Validate error %v", err, verr)
		}
	})
}
