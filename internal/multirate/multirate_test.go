package multirate

import (
	"math"
	"testing"
	"time"

	"repro/internal/retention"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSampleRowProfileStatistics(t *testing.T) {
	model := retention.DefaultModel()
	const (
		rows  = 20000
		cells = 65536 // one 8 KB row
	)
	p, err := SampleRowProfile(model, rows, cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.MinRetention) != rows {
		t.Fatalf("rows = %d", len(p.MinRetention))
	}
	// Expected fraction of rows whose min retention < 256 ms:
	// 1-(1-BER(256ms))^cells.
	wantFrac := 1 - math.Pow(1-model.BER(ms(256)), cells)
	got := 0
	for _, r := range p.MinRetention {
		if r < ms(256) {
			got++
		}
	}
	gotFrac := float64(got) / rows
	if math.Abs(gotFrac-wantFrac) > 0.02+wantFrac*0.5 {
		t.Errorf("weak-row fraction = %.4f, want ≈ %.4f", gotFrac, wantFrac)
	}
	// Every retention positive.
	for _, r := range p.MinRetention {
		if r <= 0 {
			t.Fatal("nonpositive retention")
		}
	}
	if _, err := SampleRowProfile(model, 0, 1, 1); err == nil {
		t.Error("zero rows: want error")
	}
}

func TestRAIDRBinningAndSavings(t *testing.T) {
	model := retention.DefaultModel()
	p, err := SampleRowProfile(model, 32768, 65536, 2)
	if err != nil {
		t.Fatal(err)
	}
	bins := []time.Duration{ms(64), ms(128), ms(256)}
	r, err := NewRAIDR(p, bins)
	if err != nil {
		t.Fatal(err)
	}
	counts := r.BinCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 32768 {
		t.Fatalf("bin counts sum %d", total)
	}
	// At these BERs almost every row retains >256 ms: the top bin
	// dominates (that is RAIDR's whole premise).
	if frac := float64(counts[2]) / 32768; frac < 0.95 {
		t.Errorf("top-bin fraction = %.3f, want > 0.95", frac)
	}
	// Refresh savings close to 4x (64→256 ms for nearly all rows).
	norm := r.RefreshRateNorm()
	if norm > 0.30 || norm < 0.25 {
		t.Errorf("refresh rate norm = %.3f, want ≈ 0.26", norm)
	}
	// Row assignment never exceeds the profiled retention.
	for row, ret := range p.MinRetention {
		if r.RowPeriod(row) > ret && r.RowPeriod(row) != bins[0] {
			t.Fatalf("row %d assigned %v beyond retention %v", row, r.RowPeriod(row), ret)
		}
	}
}

func TestRAIDRValidation(t *testing.T) {
	p := &RowProfile{MinRetention: []time.Duration{time.Second}}
	if _, err := NewRAIDR(p, []time.Duration{ms(64)}); err == nil {
		t.Error("single bin: want error")
	}
	if _, err := NewRAIDR(p, []time.Duration{ms(128), ms(64)}); err == nil {
		t.Error("unsorted bins: want error")
	}
}

func TestRAIDRSilentFailuresUnderVRT(t *testing.T) {
	model := retention.DefaultModel()
	p, err := SampleRowProfile(model, 32768, 65536, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRAIDR(p, []time.Duration{ms(64), ms(128), ms(256)})
	if err != nil {
		t.Fatal(err)
	}
	// VRT cells degrade to 100 ms retention: any cell on a 128/256 ms
	// row (≈ all rows) silently fails.
	failures := r.SilentFailuresUnderVRT(1000, ms(100), 4)
	if failures < 950 {
		t.Errorf("VRT silent failures = %d / 1000, want nearly all", failures)
	}
	// Degradation milder than every bin: no failures.
	if got := r.SilentFailuresUnderVRT(1000, ms(300), 5); got != 0 {
		t.Errorf("no-degradation failures = %d", got)
	}
}

func TestFlikkerEffectiveRate(t *testing.T) {
	// The paper's Amdahl example: 1/4 critical at rate 1, 3/4 at 1/16
	// => effective ≈ 1/3.
	f, err := NewFlikker(0.25, ms(64), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := f.RefreshRateNorm()
	if math.Abs(got-0.298) > 0.01 {
		t.Errorf("Flikker effective rate = %.3f, paper ≈ 0.3", got)
	}
	// MECC by contrast reaches 1/16 = 0.0625 for the whole memory.
	if got < 0.0625*3 {
		t.Error("Flikker should be far worse than MECC's 1/16")
	}
	if _, err := NewFlikker(1.5, ms(64), time.Second); err == nil {
		t.Error("bad fraction: want error")
	}
	if _, err := NewFlikker(0.5, time.Second, ms(64)); err == nil {
		t.Error("relaxed < base: want error")
	}
}

func TestSECRET(t *testing.T) {
	model := retention.DefaultModel()
	// 1 GB memory at 1 s: ~256K patched cells (the paper's Section II-B
	// estimate of failing bits).
	s, err := NewSECRET(model, float64(uint64(8)<<30), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.PatchedCells < 250_000 || s.PatchedCells > 290_000 {
		t.Errorf("patched cells = %d, want ≈ 272K", s.PatchedCells)
	}
	if got := s.RefreshRateNorm(ms(64)); math.Abs(got-0.064) > 1e-9 { // 64ms/1s
		t.Errorf("SECRET refresh norm = %v, want 1/16", got)
	}
	// All post-profiling VRT cells below the relaxed period fail.
	if got := s.SilentFailuresUnderVRT(500, ms(100)); got != 500 {
		t.Errorf("SECRET VRT failures = %d, want 500", got)
	}
	if got := s.SilentFailuresUnderVRT(500, 2*time.Second); got != 0 {
		t.Errorf("healthy cells failed: %d", got)
	}
	if _, err := NewSECRET(model, 0, time.Second); err == nil {
		t.Error("zero bits: want error")
	}
}
