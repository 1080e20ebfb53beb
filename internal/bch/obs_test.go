package bch

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestObserverCountsCodecTraffic wires a recorder, runs encode/decode
// traffic including corrected and uncorrectable words, and checks the
// counters.
func TestObserverCountsCodecTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := mustCode(t, 6, false)
	rec := obs.New()
	SetObserver(rec)
	defer SetObserver(nil)

	data := randLine(rng)
	parity := c.Encode(data)
	if _, res := c.Decode(data, parity); res.Uncorrectable {
		t.Fatal("clean decode flagged uncorrectable")
	}
	cd, cp := corruptWord(rng, c, data, parity, 3)
	if _, res := c.Decode(cd, cp); res.Uncorrectable || res.CorrectedBits != 3 {
		t.Fatalf("3-error decode: %+v", res)
	}

	// Overload a weak code with 5 errors: it either detects the word as
	// uncorrectable or miscorrects a few bits — both must be accounted.
	w := mustCode(t, 2, false)
	wp := w.Encode(data)
	wd, wpp := corruptWord(rng, w, data, wp, 5)
	_, res := w.Decode(wd, wpp)

	wantCorrected := uint64(3)
	wantUncorrectable := uint64(0)
	if res.Uncorrectable {
		wantUncorrectable = 1
	} else {
		wantCorrected += uint64(res.CorrectedBits)
	}
	reg := rec.Registry()
	if got := reg.Counter("bch_encodes_total").Value(); got != 2 {
		t.Errorf("encodes = %d, want 2", got)
	}
	if got := reg.Counter("bch_decodes_total").Value(); got != 3 {
		t.Errorf("decodes = %d, want 3", got)
	}
	if got := reg.Counter("bch_corrected_bits_total").Value(); got != wantCorrected {
		t.Errorf("corrected bits = %d, want %d", got, wantCorrected)
	}
	if got := reg.Counter("bch_uncorrectable_total").Value(); got != wantUncorrectable {
		t.Errorf("uncorrectable = %d, want %d", got, wantUncorrectable)
	}
}

// TestDetachedObserverZeroAllocs: once a recorder that has counted
// traffic is detached, the decode hot path is back to zero allocations
// (the disabled-telemetry guarantee TestDecodeZeroAllocs relies on).
func TestDetachedObserverZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	c := mustCode(t, 6, false)
	data := randLine(rng)
	parity := c.Encode(data)
	SetObserver(obs.New())
	defer SetObserver(nil)
	c.Decode(data, parity)
	SetObserver(nil)
	if n := testing.AllocsPerRun(200, func() { c.Decode(data, parity) }); n != 0 {
		t.Errorf("detached Decode allocates %.1f times per run, want 0", n)
	}
}
