package experiments

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/batch"
	"repro/internal/ecc"
	"repro/internal/line"
	"repro/internal/obs"
	"repro/internal/retention"
	"repro/internal/stats"
)

// integrityTrialLoop is the integrity Monte Carlo as a plain per-trial
// loop, drawing, encoding, corrupting, decoding and counting one trial
// at a time: the oracle the pooled sweep must reproduce exactly.
func integrityTrialLoop(t *testing.T, trials int, stressBER float64, seed int64) IntegrityResult {
	t.Helper()
	ber := stressBER
	if ber == 0 {
		ber = retention.SlowBitErrorRate
	}
	m, err := ecc.NewDefaultMorphable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	inj := retention.NewInjector(seed+1, ber)
	weakInj := retention.NewInjector(seed+2, retention.JEDECBitErrorRate)

	out := IntegrityResult{Trials: trials}
	for i := 0; i < trials; i++ {
		var data line.Line
		for w := range data {
			data[w] = rng.Uint64()
		}

		bad, spare := data, m.Encode(data, ecc.ModeStrong)
		modeHit := false
		flips := inj.FlipPositions(line.Bits + ecc.SpareBits)
		out.InjectedErrors += len(flips)
		for _, pos := range flips {
			if pos < line.Bits {
				bad = bad.FlipBit(pos)
				continue
			}
			sp := pos - line.Bits
			if sp < ecc.ModeBits {
				modeHit = true
			}
			spare ^= uint64(1) << sp
		}
		fixed, ev := m.Decode(bad, spare)
		if modeHit {
			out.ModeBitFlips++
			if ev.Mode == ecc.ModeStrong {
				out.ModeResolved++
			}
		}
		switch {
		case ev.Result.Uncorrectable:
			out.StrongDetected++
		case fixed == data:
			out.StrongCorrected++
		default:
			out.SilentCorruptions++
		}

		wBad, wSpare := data, m.Encode(data, ecc.ModeWeak)
		flips = weakInj.FlipPositions(line.Bits + ecc.SpareBits)
		if len(flips) == 0 && i == 0 {
			flips = append(flips, rng.Intn(line.Bits))
		}
		if len(flips) > 1 {
			flips = flips[:1]
		}
		for _, pos := range flips {
			if pos < line.Bits {
				wBad = wBad.FlipBit(pos)
			} else {
				wSpare ^= uint64(1) << (pos - line.Bits)
			}
		}
		fixed, ev = m.Decode(wBad, wSpare)
		if !ev.Result.Uncorrectable && fixed == data {
			out.WeakCorrected++
		} else {
			out.SilentCorruptions++
		}
	}

	tb := stats.NewTable("Metric", "Count")
	tb.AddRow("Trials per mode", out.Trials)
	tb.AddRow("Injected errors", out.InjectedErrors)
	tb.AddRow("Strong corrected", out.StrongCorrected)
	tb.AddRow("Strong detected-uncorrectable", out.StrongDetected)
	tb.AddRow("Weak corrected", out.WeakCorrected)
	tb.AddRow("Mode-bit flips / resolved", fmt.Sprintf("%d / %d", out.ModeBitFlips, out.ModeResolved))
	tb.AddRow("SILENT CORRUPTIONS", out.SilentCorruptions)
	out.Rendered = tb.String()
	return out
}

// TestIntegrityMatchesTrialLoop holds the pooled sweep to the per-trial
// loop on pools of one, two and three workers: trial counts around the
// chunk boundaries (one short chunk, exactly one chunk, one trial into
// the second buffer, chunks wrapping back into the first), at the
// paper's BER, the benchmark's and a stress BER with a >6-error tail.
func TestIntegrityMatchesTrialLoop(t *testing.T) {
	var pools []*batch.Pool
	for _, w := range []int{1, 2, 3} {
		p := batch.NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	for _, trials := range []int{1, 2047, 2048, 2049, 6001} {
		for _, ber := range []float64{0, 1e-3, 5e-3} {
			for _, seed := range []int64{1, 7} {
				want := integrityTrialLoop(t, trials, ber, seed)
				for _, p := range pools {
					got, err := integrity(p, trials, ber, seed)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%d trials, BER %g, seed %d, %d workers:\n got %+v\nwant %+v",
							trials, ber, seed, p.Workers(), got, want)
					}
				}
			}
		}
	}
}

// TestIntegrityZeroAllocs guards the sweep's steady state: a call
// allocates as much at ten chunks as at one, so per-chunk work
// allocates nothing, and every chunk fans out over the whole pool. The
// pool is built here because testing.AllocsPerRun runs at GOMAXPROCS
// 1, where batch.Default() could have one worker. Collection is off
// while counting: a GC empties fmt's sync.Pool, and the next call's
// rendering then allocates more.
func TestIntegrityZeroAllocs(t *testing.T) {
	pool := batch.NewPool(2)
	defer pool.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs []float64
	for _, trials := range []int{integrityChunk, 10 * integrityChunk} {
		rec := obs.New()
		batch.SetObserver(rec)
		_, err := integrity(pool, trials, 1e-3, 1)
		batch.SetObserver(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(trials / integrityChunk * pool.Workers())
		if got := rec.Registry().Counter("batch_chunks_total").Value(); got != want {
			t.Errorf("%d trials ran %d pool chunks, want %d", trials, got, want)
		}
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			if _, err := integrity(pool, trials, 1e-3, 1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] && !raceEnabled {
		t.Errorf("a call allocates %v times at 1 chunk and %v at 10, want equal", allocs[0], allocs[1])
	}
}
