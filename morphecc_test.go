package morphecc

import (
	"testing"

	"repro/internal/line"
	"repro/internal/obs"
)

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 28 {
		t.Fatalf("benchmarks = %d, want 28", len(names))
	}
	if _, err := ProfileByName(names[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Error("want error")
	}
}

func TestRunFacade(t *testing.T) {
	opts := Options{Scale: 8000, Seed: 1}
	res, err := Run("libq", MECC, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Scheme != MECC || res.Benchmark != "libq" {
		t.Errorf("result: %+v", res)
	}
	if _, err := Run("bogus", MECC, opts); err == nil {
		t.Error("unknown benchmark: want error")
	}
	if _, err := Run("libq", MECC, Options{}); err == nil {
		t.Error("invalid options: want error")
	}
}

// TestRunAttachesRecorder: Run threads opts' recorder into the
// simulation, which publishes its DRAM counters there.
func TestRunAttachesRecorder(t *testing.T) {
	rec := obs.New()
	if _, err := Run("libq", MECC, Options{Scale: 8000, Seed: 1, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Registry().Counter("dram_rd_total").Value() == 0 {
		t.Error("dram_rd_total = 0: Run dropped opts.Obs")
	}
}

func TestRunProfileFacade(t *testing.T) {
	prof, err := ProfileByName("povray")
	if err != nil {
		t.Fatal(err)
	}
	prof = prof.Scaled(8000)
	res, err := RunProfile(prof, Baseline, Options{Scale: 8000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC < 1.5 {
		t.Errorf("povray IPC = %v", res.IPC)
	}
	if _, err := RunProfile(prof, Baseline, Options{}); err == nil {
		t.Error("invalid options: want error")
	}
}

func TestCodecFacades(t *testing.T) {
	m, err := NewMorphableCodec()
	if err != nil {
		t.Fatal(err)
	}
	var data line.Line
	data[0] = 0xabcdef
	spare := m.Encode(data, 2) // ModeStrong
	got, ev := m.Decode(data.FlipBit(3).FlipBit(99), spare)
	if got != data || ev.Result.CorrectedBits != 2 {
		t.Errorf("morphable decode: %+v", ev)
	}
	c, err := CodecByName("ecc6")
	if err != nil {
		t.Fatal(err)
	}
	if c.StorageBits() != 60 {
		t.Error("ecc6 storage")
	}
	if _, err := CodecByName("zzz"); err == nil {
		t.Error("want error")
	}
}

func TestExperimentFacades(t *testing.T) {
	tbl, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RequiredStrength != 6 {
		t.Errorf("required strength = %d", tbl.RequiredStrength)
	}
	f8, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if f8.Reduction < 0.4 {
		t.Errorf("idle reduction = %v", f8.Reduction)
	}
	rw, err := RelatedWork(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Rows) != 5 {
		t.Errorf("related work rows = %d", len(rw.Rows))
	}
	integ, err := Integrity(200, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if integ.SilentCorruptions != 0 {
		t.Errorf("silent corruptions = %d", integ.SilentCorruptions)
	}
	f7, err := Fig7(Options{Scale: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Bars) != 29 {
		t.Errorf("fig7 bars = %d", len(f7.Bars))
	}
	if _, err := Fig7(Options{}); err == nil {
		t.Error("invalid options: want error")
	}
}
