package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// newSuite builds a suite at opts.
func newSuite(t *testing.T, opts Options) *Suite {
	t.Helper()
	s, err := NewSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fastSuite runs at a coarse scale to keep the test suite quick while
// preserving the qualitative shapes the assertions check.
func fastSuite(t *testing.T) *Suite {
	t.Helper()
	return newSuite(t, Options{Scale: 4000, Seed: 1})
}

func TestOptionsValidation(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Options{Scale: 0}).Validate(); err == nil {
		t.Error("scale 0: want error")
	}
	if err := (Options{Scale: 1, Parallel: -1}).Validate(); err == nil {
		t.Error("negative parallel: want error")
	}
	if got := (Options{Scale: 400}).Instructions(); got != 10_000_000 {
		t.Errorf("instructions = %d", got)
	}
	if _, err := NewSuite(Options{}); err == nil {
		t.Error("NewSuite with zero options: want error")
	}
}

func TestTableI(t *testing.T) {
	res, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.RequiredStrength != 6 {
		t.Errorf("required strength = ECC-%d, want ECC-6", res.RequiredStrength)
	}
	if !strings.Contains(res.Rendered, "No ECC") || !strings.Contains(res.Rendered, "ECC-6") {
		t.Error("rendered table incomplete")
	}
}

func TestTableIIAndIV(t *testing.T) {
	if s := TableII(); !strings.Contains(s, "1024MB LPDDR") || !strings.Contains(s, "in-order") {
		t.Errorf("TableII:\n%s", s)
	}
	if s := TableIV(); !strings.Contains(s, "IDD8") || !strings.Contains(s, "1.7 V") {
		t.Errorf("TableIV:\n%s", s)
	}
}

func TestFig2(t *testing.T) {
	res := Fig2()
	if len(res.Periods) != 21 {
		t.Fatalf("points = %d", len(res.Periods))
	}
	if res.Slope < 3.5 || res.Slope > 4.0 {
		t.Errorf("slope = %v", res.Slope)
	}
	if res.Rendered == "" {
		t.Error("no rendering")
	}
}

func TestFig8(t *testing.T) {
	res, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// Refresh drops 16x for MECC and ECC-6.
	if res.RefreshNormalized[0] != 1 {
		t.Error("baseline refresh should be 1")
	}
	for _, i := range []int{1, 2} {
		if got := res.RefreshNormalized[i]; got < 0.0624 || got > 0.0626 {
			t.Errorf("scheme %d refresh norm = %v, want 1/16", i, got)
		}
	}
	// Total idle power cut ≈43% (paper: "about 43%", "almost 2X").
	if res.Reduction < 0.40 || res.Reduction > 0.46 {
		t.Errorf("idle reduction = %.1f%%, paper ≈ 43%%", res.Reduction*100)
	}
}

// TestSuiteFiguresSmoke runs the simulation-backed figures at coarse
// scale and checks the paper's qualitative claims.
func TestSuiteFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed figures skipped in -short")
	}
	s := fastSuite(t)

	f3, err := Fig3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Groups) != 4 {
		t.Fatalf("fig3 groups = %d", len(f3.Groups))
	}
	// High-MPKI suffers more from ECC-6 than Low-MPKI.
	if f3.Groups[2].ECC6 >= f3.Groups[0].ECC6 {
		t.Errorf("ECC-6 impact ordering wrong: low=%.3f high=%.3f",
			f3.Groups[0].ECC6, f3.Groups[2].ECC6)
	}
	// SECDED is near-free everywhere.
	for _, g := range f3.Groups {
		if g.SECDED < 0.98 {
			t.Errorf("%s SECDED = %.3f", g.Label, g.SECDED)
		}
	}

	f7, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Bars) != 29 { // 28 + ALL
		t.Fatalf("fig7 bars = %d", len(f7.Bars))
	}
	all := f7.Bars[28]
	if all.Name != "ALL" {
		t.Fatal("last bar should be ALL")
	}
	// Paper: SECDED ≈ 0.995, ECC-6 ≈ 0.90, MECC ≈ 0.988, and the
	// ordering SECDED > MECC > ECC-6.
	if !(all.SECDED > all.MECC && all.MECC > all.ECC6) {
		t.Errorf("ordering violated: %+v", all)
	}
	if all.ECC6 > 0.95 || all.ECC6 < 0.82 {
		t.Errorf("ECC-6 ALL = %.3f, paper ≈ 0.90", all.ECC6)
	}
	if all.MECC < 0.95 {
		t.Errorf("MECC ALL = %.3f, paper ≈ 0.988", all.MECC)
	}

	f9, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(f9.Rows))
	}
	// EDP: MECC stays near baseline, ECC-6 clearly worse.
	var edpMECC, edpECC6 float64
	for _, r := range f9.Rows {
		switch r.Scheme {
		case sim.SchemeMECC:
			edpMECC = r.EDP
		case sim.SchemeECC6:
			edpECC6 = r.EDP
		}
	}
	if edpECC6 < edpMECC {
		t.Errorf("EDP ordering: ECC-6 %.3f should exceed MECC %.3f", edpECC6, edpMECC)
	}
	if edpMECC > 1.06 {
		t.Errorf("MECC EDP = %.3f, want near baseline", edpMECC)
	}

	f10, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	// Idle is a sizable share of baseline total (paper: ~1/3).
	idleShare := f10.IdleJ[0]
	if idleShare < 0.15 || idleShare > 0.6 {
		t.Errorf("baseline idle share = %.2f, paper ≈ 1/3", idleShare)
	}
	// MECC saves ~ idleShare*0.43 of the total (paper: 15%).
	if f10.Saving < 0.08 || f10.Saving > 0.30 {
		t.Errorf("total saving = %.2f, paper ≈ 0.15", f10.Saving)
	}
}

func TestFig11MDT(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := Fig11(newSuite(t, Options{Scale: 2000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 28 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.TrackedMB <= 0 {
			t.Errorf("%s tracked 0 MB", r.Name)
		}
		if r.TrackedMB > 1024 {
			t.Errorf("%s tracked %v MB > memory", r.Name, r.TrackedMB)
		}
	}
	// Well below the 1 GB the MDT-less design would sweep.
	if res.MeanTrackedMB > 512 {
		t.Errorf("mean tracked = %.0f MB", res.MeanTrackedMB)
	}
}

func TestFig13And14(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	s := fastSuite(t)
	f13, err := Fig13(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) < 4 {
		t.Fatalf("fig13 rows = %d", len(f13.Rows))
	}
	// MECC's gap shrinks with slice length: last point better than first.
	first, last := f13.Rows[0], f13.Rows[len(f13.Rows)-1]
	if last.MECC < first.MECC-0.002 {
		t.Errorf("MECC not converging: first %.4f last %.4f", first.MECC, last.MECC)
	}

	f14, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != 28 {
		t.Fatalf("fig14 rows = %d", len(f14.Rows))
	}
	// The compute-bound seven (paper list) never enable ECC-Downgrade.
	never := map[string]bool{}
	for _, r := range f14.Rows {
		if r.DisabledPct > 99.5 {
			never[r.Name] = true
		}
	}
	for _, name := range []string{"povray", "tonto", "wrf", "gamess", "hmmer", "sjeng", "h264ref"} {
		if !never[name] {
			t.Errorf("%s should never enable ECC-Downgrade", name)
		}
	}
	// Memory-bound benchmarks enable it almost immediately.
	for _, r := range f14.Rows {
		if r.Name == "libq" || r.Name == "lbm" {
			if r.DisabledPct > 30 {
				t.Errorf("%s disabled %.0f%%, want quick enable", r.Name, r.DisabledPct)
			}
		}
	}
	// Average performance with SMD within a few % of baseline.
	if f14.MeanNormalizedIPC < 0.95 {
		t.Errorf("SMD geomean IPC = %.3f", f14.MeanNormalizedIPC)
	}
}

func TestIntegrityAtPaperBER(t *testing.T) {
	res, err := Integrity(3000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.SilentCorruptions != 0 {
		t.Fatalf("silent corruptions: %d", res.SilentCorruptions)
	}
	if res.StrongCorrected+res.StrongDetected != res.Trials {
		t.Error("strong trials unaccounted")
	}
	// At BER 1e-4.5 over 576 bits (mean 0.018 errors/line), >6-error
	// lines are essentially impossible: everything corrects.
	if res.StrongDetected != 0 {
		t.Errorf("detected-uncorrectable at paper BER: %d", res.StrongDetected)
	}
	if res.WeakCorrected != res.Trials {
		t.Errorf("weak corrected = %d / %d", res.WeakCorrected, res.Trials)
	}
}

func TestIntegrityUnderStress(t *testing.T) {
	// BER 5e-3 over 576 bits: mean ≈ 2.9 errors per line, with a real
	// tail beyond 6 — the decoder must flag those, never mis-deliver.
	res, err := Integrity(2000, 5e-3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.SilentCorruptions != 0 {
		t.Fatalf("silent corruptions under stress: %d", res.SilentCorruptions)
	}
	if res.StrongDetected == 0 {
		t.Error("stress BER should produce some detected-uncorrectable lines")
	}
	if res.StrongCorrected == 0 {
		t.Error("stress BER should still correct most lines")
	}
	if res.ModeBitFlips == 0 || res.ModeResolved != res.ModeBitFlips {
		t.Errorf("mode bits: %d flips, %d resolved", res.ModeBitFlips, res.ModeResolved)
	}
	for _, tc := range []struct {
		name   string
		trials int
		ber    float64
	}{
		{"zero trials", 0, 0},
		{"NaN BER", 100, math.NaN()},
		{"negative BER", 100, -0.5},
		{"BER above 1", 100, 1.5},
		{"infinite BER", 100, math.Inf(1)},
	} {
		if _, err := Integrity(tc.trials, tc.ber, 1); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", tc.name, err)
		}
	}
}

func TestAblationRefreshSweep(t *testing.T) {
	res, err := AblationRefreshSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// 64 ms requires no ECC; 1 s requires ECC-6; strength is monotone.
	if res.Rows[0].RequiredECC != 0 {
		t.Errorf("64ms required ECC-%d, want 0", res.Rows[0].RequiredECC)
	}
	for i, r := range res.Rows {
		if r.Period.Seconds() == 1 && r.RequiredECC != 6 {
			t.Errorf("1s required ECC-%d, want 6", r.RequiredECC)
		}
		if i > 0 && r.RequiredECC < res.Rows[i-1].RequiredECC {
			t.Error("required strength not monotone")
		}
		if i > 0 && r.IdlePowerNorm >= res.Rows[i-1].IdlePowerNorm {
			t.Error("idle power not decreasing")
		}
	}
}

func TestAblationMDT(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := AblationMDT(newSuite(t, Options{Scale: 2000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Disabled MDT sweeps the full memory (~419 ms); any MDT much less.
	if res.Rows[0].UpgradeMs < 400 {
		t.Errorf("no-MDT upgrade = %.0f ms, want ≈ 419", res.Rows[0].UpgradeMs)
	}
	for _, r := range res.Rows[1:] {
		if r.UpgradeMs >= res.Rows[0].UpgradeMs {
			t.Errorf("MDT %d entries does not reduce upgrade time", r.Entries)
		}
	}
	// 1K entries = 128 bytes (paper).
	if res.Rows[2].Entries != 1024 || res.Rows[2].StorageBytes != 128 {
		t.Errorf("1K MDT row: %+v", res.Rows[2])
	}
}

func TestRelatedWork(t *testing.T) {
	res, err := RelatedWork(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]RelatedWorkRow{}
	for _, r := range res.Rows {
		byName[r.Scheme] = r
	}
	raidr := res.Rows[1]
	flikker := res.Rows[2]
	secret := res.Rows[3]
	mecc := res.Rows[4]
	// MECC achieves the deepest refresh reduction of the safe schemes.
	if mecc.RefreshRateNorm >= flikker.RefreshRateNorm || mecc.RefreshRateNorm >= raidr.RefreshRateNorm {
		t.Errorf("MECC refresh %.3f should undercut RAIDR %.3f and Flikker %.3f",
			mecc.RefreshRateNorm, raidr.RefreshRateNorm, flikker.RefreshRateNorm)
	}
	// Profiling-based schemes lose data under VRT; MECC does not.
	if raidr.VRTSilentFailures < 900 {
		t.Errorf("RAIDR VRT failures = %d, want ~all of 1000", raidr.VRTSilentFailures)
	}
	if secret.VRTSilentFailures != 1000 {
		t.Errorf("SECRET VRT failures = %d", secret.VRTSilentFailures)
	}
	if mecc.VRTSilentFailures != 0 {
		t.Errorf("MECC VRT failures = %d, want 0", mecc.VRTSilentFailures)
	}
	// The Flikker Amdahl point: stuck near 0.3 despite a 1/16 relaxed rate.
	if flikker.RefreshRateNorm < 0.28 || flikker.RefreshRateNorm > 0.32 {
		t.Errorf("Flikker rate = %.3f", flikker.RefreshRateNorm)
	}
	_ = byName
}

func TestRefreshModes(t *testing.T) {
	res, err := RefreshModes()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	pasr8 := res.Rows[3]
	mecc := res.Rows[4]
	dpd := res.Rows[5]
	// The Section II-A motivation, exceeded: MECC's idle power undercuts
	// even PASR-1/8 while retaining full capacity.
	if mecc.UsableCapacity != 1 {
		t.Error("MECC must retain full capacity")
	}
	if mecc.IdlePowerNorm > pasr8.IdlePowerNorm {
		t.Errorf("MECC idle %.3f should undercut PASR-1/8 %.3f", mecc.IdlePowerNorm, pasr8.IdlePowerNorm)
	}
	if dpd.UsableCapacity != 0 || dpd.IdlePowerNorm > 0.05 {
		t.Errorf("DPD row: %+v", dpd)
	}
	// Power ordering is monotone down the table.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].IdlePowerNorm > res.Rows[i-1].IdlePowerNorm+1e-9 {
			t.Errorf("power not decreasing at row %d", i)
		}
	}
}

func TestAblationMapping(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := AblationMapping(newSuite(t, Options{Scale: 4000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]MappingRow{}
	for _, r := range res.Rows {
		byKey[r.Benchmark+"/"+r.Mapping.String()] = r
	}
	// Streaming libq: row:bank:col yields high row-hit rates.
	if r := byKey["libq/row:bank:col"]; r.RowHitRate < 0.8 {
		t.Errorf("libq row:bank:col hit rate = %.2f", r.RowHitRate)
	}
	// XOR permutation preserves streaming locality (columns unchanged).
	plain := byKey["libq/row:bank:col"]
	xored := byKey["libq/row:bank^row:col"]
	if xored.RowHitRate < plain.RowHitRate-0.05 {
		t.Errorf("XOR mapping hurt streaming: %.2f vs %.2f", xored.RowHitRate, plain.RowHitRate)
	}
}

func TestAblationRefreshPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := AblationRefreshPolicy(newSuite(t, Options{Scale: 2000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Per-bank refresh must not hurt IPC, and both policies complete.
	for i := 0; i < len(res.Rows); i += 2 {
		allBank, perBank := res.Rows[i], res.Rows[i+1]
		if perBank.IPC < allBank.IPC*0.98 {
			t.Errorf("%s: per-bank IPC %.3f well below all-bank %.3f",
				perBank.Benchmark, perBank.IPC, allBank.IPC)
		}
		if perBank.P99LatencyCPU > allBank.P99LatencyCPU {
			t.Errorf("%s: per-bank p99 %.0f worse than all-bank %.0f",
				perBank.Benchmark, perBank.P99LatencyCPU, allBank.P99LatencyCPU)
		}
	}
}

func TestAblationWeakCode(t *testing.T) {
	res, err := AblationWeakCode(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]WeakCodeRow{}
	for _, r := range res.Rows {
		byName[r.WeakCode] = r
	}
	// No weak protection: every soft error silently corrupts data.
	if got := byName["none"]; got.Corrupted != res.Events {
		t.Errorf("none: corrupted %d of %d", got.Corrupted, res.Events)
	}
	// SECDED and ECC-2 correct everything at these single-bit events.
	for _, name := range []string{"secded-line", "ecc2"} {
		if got := byName[name]; got.Corrected != res.Events || got.Corrupted != 0 {
			t.Errorf("%s: %+v", name, got)
		}
	}
	// Storage ladder as the paper describes: 0 < 11 < 20 bits.
	if byName["none"].StorageBits != 0 || byName["secded-line"].StorageBits != 11 || byName["ecc2"].StorageBits != 20 {
		t.Error("storage bits mismatch")
	}
	if _, err := AblationWeakCode(0, 1); err == nil {
		t.Error("zero events: want error")
	}
}

func TestCapacityScaling(t *testing.T) {
	res, err := CapacityScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Idle power and savings scale linearly with capacity.
	first, last := res.Rows[0], res.Rows[3]
	if ratio := last.BaselineIdleMW / first.BaselineIdleMW; ratio < 15.9 || ratio > 16.1 {
		t.Errorf("idle power scaling = %.2f, want 16 (256MB -> 4GB)", ratio)
	}
	if last.SavedMW <= first.SavedMW*15 {
		t.Error("savings should scale with capacity")
	}
	// The MDT stays tiny even at 4 GB (512 B for 1 MB regions).
	if last.MDTStorageBytes > 1024 {
		t.Errorf("4GB MDT = %d B", last.MDTStorageBytes)
	}
}

func TestAblationScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := AblationScheduler(newSuite(t, Options{Scale: 4000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]SchedulerRow{}
	for _, r := range res.Rows {
		byKey[r.Benchmark+"/"+r.Policy] = r
	}
	// Streaming libq: open-page beats closed-page on row hits and IPC.
	open := byKey["libq/FR-FCFS/open"]
	closed := byKey["libq/FR-FCFS/closed"]
	if open.RowHitRate <= closed.RowHitRate {
		t.Errorf("libq open hit rate %.2f <= closed %.2f", open.RowHitRate, closed.RowHitRate)
	}
	if open.IPC < closed.IPC*0.98 {
		t.Errorf("libq open IPC %.3f below closed %.3f", open.IPC, closed.IPC)
	}
}

func TestDayInTheLife(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := DayInTheLife(Options{Scale: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, e6, mecc := res.Rows[0], res.Rows[1], res.Rows[2]
	// MECC saves energy vs baseline in the idle-dominated pattern.
	if mecc.EnergyJ >= base.EnergyJ {
		t.Errorf("MECC energy %.3g >= baseline %.3g", mecc.EnergyJ, base.EnergyJ)
	}
	if mecc.SavingPct < 10 {
		t.Errorf("MECC saving = %.1f%%, want > 10%%", mecc.SavingPct)
	}
	// MECC's active IPC beats ECC-6's.
	if mecc.MeanIPC <= e6.MeanIPC {
		t.Errorf("MECC IPC %.3f <= ECC-6 %.3f", mecc.MeanIPC, e6.MeanIPC)
	}
	// Upgrade sweeps did real work every session.
	if mecc.UpgradedLines == 0 {
		t.Error("no lines upgraded")
	}
	if base.UpgradedLines != 0 || e6.UpgradedLines != 0 {
		t.Error("non-MECC schemes should not upgrade")
	}
}

func TestHiECC(t *testing.T) {
	res := HiECC()
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mecc, hiecc := res.Rows[0], res.Rows[1]
	// MECC: 60 bits per line (GF(2^10), t=6).
	if mecc.ParityBits != 60 {
		t.Errorf("MECC parity = %d, want 60", mecc.ParityBits)
	}
	// Hi-ECC: GF(2^14) over 8192 bits => 84 parity bits per KB.
	if hiecc.ParityBits != 84 {
		t.Errorf("Hi-ECC parity = %d, want 84", hiecc.ParityBits)
	}
	// The storage-vs-bandwidth trade-off: Hi-ECC ~11x cheaper per line,
	// but 16x overfetch and write RMW.
	if hiecc.BitsPer64B >= mecc.BitsPer64B/6 {
		t.Errorf("Hi-ECC bits/64B = %.2f, want well below MECC's %.0f", hiecc.BitsPer64B, mecc.BitsPer64B)
	}
	if hiecc.ReadOverfetch != 16 || !hiecc.WriteRMW {
		t.Error("Hi-ECC access-cost columns wrong")
	}
	if mecc.ReadOverfetch != 1 || mecc.WriteRMW {
		t.Error("MECC access-cost columns wrong")
	}
}

func TestAblationTemperature(t *testing.T) {
	res, err := AblationTemperature()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byTemp := map[float64]TempRow{}
	for _, r := range res.Rows {
		byTemp[r.TempC] = r
		if r.TempC > 45 && r.BER <= byTemp[45.0].BER {
			t.Errorf("BER not increasing at %v C", r.TempC)
		}
	}
	// The paper's nominal point: ECC-6 at 45 C.
	if got := byTemp[45.0].RequiredECC; got != 6 {
		t.Errorf("45C required ECC-%d, want 6", got)
	}
	// Hot device: the 60-bit budget no longer suffices at 1 s.
	if byTemp[85.0].FitsBudget {
		t.Error("85C should exceed the spare-bit budget at 1 s refresh")
	}
	// Cool device: cheaper code suffices.
	if byTemp[25.0].RequiredECC >= 6 {
		t.Errorf("25C required ECC-%d, want < 6", byTemp[25.0].RequiredECC)
	}
}

func TestAblationPrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := AblationPrefetch(newSuite(t, Options{Scale: 4000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Streaming libq under MECC: prefetch lifts IPC.
	if res.Rows[1].IPC <= res.Rows[0].IPC {
		t.Errorf("libq MECC prefetch IPC %.3f <= off %.3f", res.Rows[1].IPC, res.Rows[0].IPC)
	}
	if res.Rows[1].HitRate < 0.5 {
		t.Errorf("libq hit rate = %.2f", res.Rows[1].HitRate)
	}
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep skipped in -short")
	}
	res, err := Fig12(newSuite(t, Options{Scale: 20000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// ECC-6 degrades monotonically with decode latency; MECC stays flat
	// within noise.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].ECC6 >= res.Rows[i-1].ECC6 {
			t.Errorf("ECC-6 not degrading: %.3f -> %.3f", res.Rows[i-1].ECC6, res.Rows[i].ECC6)
		}
	}
	if res.Rows[3].MECC < res.Rows[0].MECC-0.03 {
		t.Errorf("MECC too sensitive: %.3f -> %.3f", res.Rows[0].MECC, res.Rows[3].MECC)
	}
}

func TestDaemonStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := Daemon(newSuite(t, Options{Scale: 2000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	noSMD, smd := res.Rows[0], res.Rows[1]
	// Without SMD, downgrades engage instantly: no slow-refresh time.
	if noSMD.SlowRefreshPct > 1 {
		t.Errorf("no-SMD slow refresh = %.1f%%, want ≈ 0", noSMD.SlowRefreshPct)
	}
	// With SMD, the daemon's light traffic never trips the threshold.
	if smd.SlowRefreshPct < 99 {
		t.Errorf("SMD slow refresh = %.1f%%, want ≈ 100", smd.SlowRefreshPct)
	}
	// Refresh energy drops accordingly.
	if smd.RefreshEnergyJ >= noSMD.RefreshEnergyJ {
		t.Errorf("SMD refresh energy %.3g >= no-SMD %.3g", smd.RefreshEnergyJ, noSMD.RefreshEnergyJ)
	}
	// The daemon still makes progress (slower is fine — it pays ECC-6
	// decode on every access, the acceptable cost the paper notes).
	if smd.IPC <= 0 {
		t.Error("daemon made no progress under SMD")
	}
}

func TestModelValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	s := fastSuite(t)
	res, err := ModelValidation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 28 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The first-order model should track the simulator within a few
	// percent on average: the simulator's ECC-6 slowdown is the modelled
	// decode latency, not an artifact.
	if res.MeanAbsErrPct > 5 {
		t.Errorf("mean |error| = %.1f%%, want < 5%%", res.MeanAbsErrPct)
	}
}

func TestTableIIIAndScrubTable(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	s := fastSuite(t)
	if got := s.Options().Scale; got != 4000 {
		t.Errorf("suite options scale = %d", got)
	}
	res, err := TableIII(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(res.PerBench) != 28 {
		t.Fatalf("rows=%d perBench=%d", len(res.Rows), len(res.PerBench))
	}
	// Class averages ordered: Low IPC > Med > High, MPKI reversed.
	if !(res.Rows[0].IPC > res.Rows[1].IPC && res.Rows[1].IPC > res.Rows[2].IPC) {
		t.Errorf("IPC ordering: %+v", res.Rows)
	}
	if !(res.Rows[0].MPKI < res.Rows[1].MPKI && res.Rows[1].MPKI < res.Rows[2].MPKI) {
		t.Errorf("MPKI ordering: %+v", res.Rows)
	}
	scrub, err := ScrubTable()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrub, "Effective BER") {
		t.Errorf("scrub table:\n%s", scrub)
	}
}

func TestAblationSMDThresholdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	res, err := AblationSMDThreshold(newSuite(t, Options{Scale: 20000, Seed: 1, Parallel: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Never-enabled count is non-decreasing in the threshold.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].NeverEnabled < res.Rows[i-1].NeverEnabled {
			t.Errorf("never-enabled not monotone at threshold %v", res.Rows[i].ThresholdMPKC)
		}
	}
	// At the extreme threshold nearly everything stays ECC-6 (at this
	// very coarse scale a few High-MPKI benchmarks still cross 8 MPKC).
	if res.Rows[4].NeverEnabled < 20 {
		t.Errorf("threshold 8: never-enabled = %d, want >= 20", res.Rows[4].NeverEnabled)
	}
	if res.Rows[4].NeverEnabled <= res.Rows[2].NeverEnabled {
		t.Errorf("threshold 8 (%d) should exceed threshold 2 (%d)",
			res.Rows[4].NeverEnabled, res.Rows[2].NeverEnabled)
	}
}
